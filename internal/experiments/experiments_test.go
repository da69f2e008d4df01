package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every registered experiment at a tiny
// scale; each experiment's internal assertions (RTED never worse than
// the best competitor, optima consistent, etc.) run as part of it.
func TestAllExperimentsRun(t *testing.T) {
	if len(All()) != 25 {
		t.Fatalf("registered %d experiments, want 25", len(All()))
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{Scale: 0.05, Seed: 7, Out: &buf}
			if err := r.Run(cfg); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", r.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.HasPrefix(out, "# "+r.ID) {
				t.Fatalf("%s output missing header:\n%s", r.ID, out)
			}
			if lines := strings.Count(out, "\n"); lines < 4 {
				t.Fatalf("%s produced only %d lines", r.ID, lines)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table1"); !ok {
		t.Fatal("table1 not registered")
	}
	if _, ok := ByID("nonexistent"); ok {
		t.Fatal("bogus id found")
	}
}

func TestSizeGrid(t *testing.T) {
	cfg := Config{Scale: 1}
	g := cfg.sizes(100, 1000, 4)
	want := []int{100, 400, 700, 1000}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("grid %v want %v", g, want)
		}
	}
	cfg = Config{Scale: 0.001}
	for _, s := range cfg.sizes(100, 1000, 4) {
		if s < 8 {
			t.Fatalf("size %d below clamp", s)
		}
	}
}
