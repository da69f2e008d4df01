package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.med != 5.5 || s.q3 != 8.25 || s.n != 10 {
		t.Fatalf("summarize = %+v, want q1 2.75, median 5.5, q3 8.25, n 10", s)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0}
	cases := []struct {
		name           string
		parent, change []float64
		lowerIsBetter  bool
		bound          float64
		want           string
	}{
		{"faster", steady, scale(steady, 0.8), true, 0.1, better},
		{"slower", steady, scale(steady, 1.3), true, 0.1, worse},
		{"slower within bound", steady, scale(steady, 1.05), true, 0.1, unchanged},
		{"same", steady, steady, true, 0.1, unchanged},
		{"more throughput", steady, scale(steady, 1.2), false, 0.1, better},
		{"less throughput", steady, scale(steady, 0.7), false, 0.1, worse},
		// The parent's own runs spread wider than the bound: a small
		// shift can be neither claimed nor ruled out.
		{"noisy", noisy, scale(noisy, 1.05), true, 0.1, unresolved},
		// Wider than the bound, but every change run beats every parent
		// run: no regression, though not a proven gain either.
		{"noisy but separated", []float64{1.0, 1.3, 1.1, 1.2}, []float64{0.9, 0.95, 0.92, 0.97}, true, 0.05, unchanged},
		// A gain needs 9 of 10 pairs: 8 wins do not make one.
		{"too few wins", steady, append(scale(steady[:8], 0.5), 2, 2), true, 10, unchanged},
		// A count that repeats exactly has no spread: any change beyond
		// the bound shows.
		{"count up", []float64{100, 100, 100}, []float64{103, 103, 103}, true, 0.02, worse},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.lowerIsBetter, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp := &spec{
		Workloads: []specWorkload{{Name: "point"}},
		EndToEnd:  []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	dir := t.TempDir()
	write := func(name string, vs ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range vs {
			r := &report{Workload: "point", Metrics: map[string]metric{"p50_ms": {v, "ms"}}}
			if err := appendJSONLine(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.json", 1.0, 1.01, 0.99, 1.0)
	change := write("change.json", 1.5, 1.52, 1.49, 1.5)
	var out, errOut bytes.Buffer
	if code := compareFiles(sp, parent, change, &out, &errOut); code != 1 {
		t.Errorf("exit code %d for a regression, want 1 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "point p50_ms ms 0.1 ") || !strings.HasSuffix(strings.TrimSpace(out.String()), "worse") {
		t.Errorf("compare output:\n%s", out.String())
	}
	if code := compareFiles(sp, parent, parent, &out, &errOut); code != 0 {
		t.Errorf("exit code %d comparing a set with itself, want 0", code)
	}
}
