// Command benchmark is the end-to-end and per-layer benchmark of the
// serving stack: parse → prepare (RTED strategy) → index → bound
// filters → bounded GTED → HTTP. For each workload it generates a
// corpus and a request stream from the seed, writes the corpus as a
// snapshot, serves it in-process the way cmd/tedd does (corpus.Open →
// server.New → Warm → http.Server on a loopback listener), drives it
// over real HTTP from at most two connections, checks the answers after
// the timed window, and prints every metric as
//
//	workload metric value unit
//
// followed by one JSON line: {"correct", "attempted", "failed",
// "metrics"}, the metrics being those BENCHMARK.json names — its
// end_to_end list untraced, its per_layer list traced. It exits nonzero
// if any checked answer is wrong. Usage:
//
//	go -C benchmark run . -workload all -seed 1
//	go -C benchmark run . -workload topk -seed 2 -trace trace.json
//	go -C benchmark run . -compare parent.json change.json
//
// See README.md for the workloads, the metric glossary and the compare
// rule.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "point | topk | join | ingest | all")
		seed    = fs.Int64("seed", 1, "seed of the corpora, request streams and checked samples")
		seconds = fs.Float64("seconds", 20, "measured window per workload, in seconds")
		trace   = fs.String("trace", "0", "0: untraced run; 1: traced run; any other value: traced run that also writes its spans to this file")
		out     = fs.String("out", "", "append each workload's report to this file as one JSON line, building a set of runs for -compare")
		compare = fs.Bool("compare", false, "compare two sets of runs written by -out: -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two run files: parent.json change.json")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments, or -seconds not positive")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (point | topk | join | ingest | all)\n", *name)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	cfg := config{
		seed:      *seed,
		window:    window,
		warmup:    min(2*time.Second, window/5),
		minSetups: 5,
		scale:     1,
		traced:    *trace != "0",
	}
	spans := ""
	if cfg.traced && *trace != "1" {
		spans = *trace
	}
	return runAll(cfg, ws, sp, spans, *out, stdout, stderr)
}

// runAll runs the workloads in turn and prints their metrics and the
// closing JSON line. A traced run's spans go to spansPath, if set, as
// one JSON object keyed by workload, written as each workload ends so
// that no workload's spans stay in memory while the next one measures.
func runAll(cfg config, ws []workload, sp *spec, spansPath, outPath string, stdout, stderr io.Writer) int {
	var spans *os.File
	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		defer f.Close()
		spans = f
	}
	var (
		reps []*report
		code = 0
	)
	for i, w := range ws {
		rep, tr, err := runWorkload(cfg, w, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		for _, l := range rep.lines() {
			fmt.Fprintln(stdout, l)
		}
		if !rep.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: wrong answer: %s\n", w.name, rep.Problems[0])
			code = 1
		}
		if outPath != "" {
			if err := appendJSONLine(outPath, rep); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		if spans != nil {
			if err := writeSpans(spans, i, w.name, tr); err != nil {
				fmt.Fprintf(stderr, "benchmark: write spans: %v\n", err)
				return 1
			}
		}
		reps = append(reps, rep)
	}
	if spans != nil {
		if _, err := spans.WriteString("}\n"); err != nil {
			fmt.Fprintf(stderr, "benchmark: write spans: %v\n", err)
			return 1
		}
		if err := spans.Close(); err != nil {
			fmt.Fprintf(stderr, "benchmark: write spans: %v\n", err)
			return 1
		}
	}
	line, err := resultLine(reps, sp, cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// resultLine builds the closing JSON line. Its metrics are the ones
// BENCHMARK.json lists — end_to_end untraced, per_layer traced — keyed
// by name for one workload and by workload/name for several.
func resultLine(reps []*report, sp *spec, traced bool) ([]byte, error) {
	names := sp.EndToEnd
	if traced {
		names = sp.PerLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, n := range names {
			m, ok := r.Metrics[n.Name]
			if !ok {
				return nil, fmt.Errorf("%s: BENCHMARK.json names metric %s, which the run did not report", r.Workload, n.Name)
			}
			key := n.Name
			if len(reps) > 1 {
				key = r.Workload + "/" + n.Name
			}
			res.Metrics[key] = m
		}
	}
	return json.Marshal(res)
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the i-th member of the spans object: the workload's
// name and its spans, self times included.
func writeSpans(w io.Writer, i int, name string, tr *tracer) error {
	tr.selfTimes()
	k, err := json.Marshal(name)
	if err != nil {
		return err
	}
	v, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	sep := "{"
	if i > 0 {
		sep = ","
	}
	_, err = fmt.Fprintf(w, "%s\n%s: %s", sep, k, v)
	return err
}

// spec is BENCHMARK.json: the workloads, and the metrics with the bound
// by which each may worsen before a change counts as a regression.
type spec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory, or its parent when run from the benchmark's own directory.
func loadSpec() (*spec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var sp spec
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &sp, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}
