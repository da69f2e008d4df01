// Command tedbench regenerates the figures and tables of the RTED paper's
// evaluation (Figures 8–10, Tables 1–2) as plain-text series. The serving
// stack's latency and throughput are the benchmark module's job
// (benchmark/run.sh), not tedbench's.
//
// Usage:
//
//	tedbench -list
//	tedbench -exp fig8a [-scale 1.0] [-seed 42]
//	tedbench -all -scale 0.25
//	tedbench -exp fig8a -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Scale 1.0 reproduces the paper's size grids (minutes to hours for the
// runtime figures); the default 0.25 keeps every experiment laptop-sized
// while preserving the qualitative results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

// main defers to realMain so the profile writers (deferred there) run
// before the process exits — os.Exit in main would discard an in-flight
// CPU profile.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		list  = flag.Bool("list", false, "list experiments and exit")
		exp   = flag.String("exp", "", "experiment id to run (see -list)")
		all   = flag.Bool("all", false, "run every experiment")
		scale = flag.Float64("scale", 0.25, "size-grid scale; 1.0 = the paper's ranges")
		seed  = flag.Int64("seed", 20111229, "generator seed")
		cpu   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		mem   = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	if *cpu != "" {
		f, err := os.Create(*cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tedbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tedbench: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *mem != "" {
		defer func() {
			f, err := os.Create(*mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tedbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tedbench: memprofile: %v\n", err)
			}
		}()
	}

	switch {
	case *list:
		for _, r := range experiments.All() {
			fmt.Printf("%-18s %s\n", r.ID, r.Title)
		}
	case *all:
		for _, r := range experiments.All() {
			if err := run(r, *scale, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "tedbench: %s: %v\n", r.ID, err)
				return 1
			}
			fmt.Println()
		}
	case *exp != "":
		r, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "tedbench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		if err := run(r, *scale, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "tedbench: %s: %v\n", r.ID, err)
			return 1
		}
	default:
		flag.Usage()
		return 2
	}
	return 0
}

func run(r experiments.Runner, scale float64, seed int64) error {
	return r.Run(experiments.Config{Scale: scale, Seed: seed, Out: os.Stdout})
}
