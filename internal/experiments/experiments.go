// Package experiments regenerates the figures and tables of the paper's
// evaluation (Section 8): Figures 8–10 and Tables 1–2, nothing else.
// Each experiment writes a plain-text table (tab-separated, with a header
// comment describing the paper artifact it reproduces) so results can be
// diffed and plotted. Latency and throughput of the serving stack are
// measured by the benchmark module (benchmark/), not here.
//
// Experiments accept a Config so the same code serves two consumers:
// the cmd/tedbench CLI (full grids) and the test suite (tiny grids,
// shape assertions).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Config scales an experiment run.
type Config struct {
	// Scale multiplies the size grids: 1.0 reproduces the paper's
	// ranges; smaller values shrink them proportionally (sizes are
	// clamped to a minimum of 8 nodes).
	Scale float64
	// Seed drives every generator in the experiment.
	Seed int64
	// Out receives the result table.
	Out io.Writer
}

func (c Config) size(n int) int {
	s := int(float64(n) * c.Scale)
	if s < 8 {
		s = 8
	}
	return s
}

// sizes builds a size grid from lo to hi (scaled) in steps.
func (c Config) sizes(lo, hi, steps int) []int {
	lo, hi = c.size(lo), c.size(hi)
	if steps < 2 || hi <= lo {
		return []int{hi}
	}
	var out []int
	for i := 0; i < steps; i++ {
		out = append(out, lo+(hi-lo)*i/(steps-1))
	}
	return out
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string // the paper artifact it reproduces
	Run   func(cfg Config) error
}

var registry []Runner

func register(id, title string, run func(cfg Config) error) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by id.
func All() []Runner {
	out := append([]Runner(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// header prints the standard experiment preamble.
func header(cfg Config, id, title string, cols ...string) {
	fmt.Fprintf(cfg.Out, "# %s — %s\n", id, title)
	fmt.Fprintf(cfg.Out, "# scale=%.2f seed=%d\n", cfg.Scale, cfg.Seed)
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(cfg.Out, "\t")
		}
		fmt.Fprint(cfg.Out, c)
	}
	fmt.Fprintln(cfg.Out)
}

func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }
