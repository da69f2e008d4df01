package ted_test

import (
	"math"
	"testing"

	ted "repro"
	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/zs"
)

// FuzzConstrainedBelow fuzzes the tau-banded constrained distance that
// decides a filtered join's upper-bound acceptance. Against the full DP
// (tau = +Inf) it must report "below" exactly when the constrained
// distance d is < tau and then return d itself, and otherwise return an
// upper bound no smaller than tau. The full DP must also stay above the
// exact distance (Zhang–Shasha), the sandwich every join filter relies
// on. One scratch serves every input, so stale cells of an earlier,
// larger pair would show.
//
// Run continuously with: go test -fuzz=FuzzConstrainedBelow
func FuzzConstrainedBelow(f *testing.F) {
	f.Add("{a{b}{c}}", "{a{b{d}}}", 1.5)
	f.Add("{a{b{c}{d}}{e}}", "{a{c}{d}{e}}", 2.0)
	f.Add("{x{x}{x}{x}{x}}", "{x{x{x{x{x}}}}}", 3.0)
	f.Add("{a}", "{b}", math.Inf(1))
	f.Add("{r{a{b}{c}}{d}}", "{r{d}{a{c}{b}}}", 0.0)
	f.Add("{l0{l1}{l2{l3}}}", "{l0{l2{l3}}{l1}}", -1.0)

	var s bounds.ConstrainedScratch
	f.Fuzz(func(t *testing.T, fs, gs string, tau float64) {
		ft, err := ted.Parse(fs)
		if err != nil || ft.Len() > 60 {
			t.Skip()
		}
		gt, err := ted.Parse(gs)
		if err != nil || gt.Len() > 60 {
			t.Skip()
		}
		d := bounds.Constrained(ft, gt)
		if exact := zs.Dist(ft, gt, cost.Unit{}); d < exact {
			t.Fatalf("constrained %v below the exact distance %v\nF=%s\nG=%s", d, exact, fs, gs)
		}
		got, ok := bounds.ConstrainedBelow(ft, gt, tau, &s)
		switch {
		case ok != (d < tau):
			t.Fatalf("tau=%v: below=%v for constrained distance %v\nF=%s\nG=%s", tau, ok, d, fs, gs)
		case ok && got != d:
			t.Fatalf("tau=%v: %v, want exact %v\nF=%s\nG=%s", tau, got, d, fs, gs)
		case !ok && !math.IsNaN(tau) && (got < tau || got < d):
			t.Fatalf("tau=%v: %v is not an upper bound ≥ tau on %v\nF=%s\nG=%s", tau, got, d, fs, gs)
		}
	})
}
