package ted_test

import (
	"math"
	"testing"

	ted "repro"
	"repro/internal/difftest"
)

// boundedModels are the cost models the bounded contract is fuzzed and
// benchmarked under: unit costs, which run the bound prefilter and are
// exact, and three non-unit models, which skip the prefilter, so the
// root check of bounded GTED is all that refuses a pair before its DP.
// The label-dependent model prices labels differently, so its
// per-subtree delete/insert floors differ from the global minima and
// its renames are asymmetric.
var boundedModels = []struct {
	name string
	m    ted.CostModel
}{
	{"unit", ted.UnitCost},
	{"weighted-1-1-0.5", ted.WeightedCost(1, 1, 0.5)},
	{"weighted-1.3-0.7-2.1", ted.WeightedCost(1.3, 0.7, 2.1)},
	{"label-func", ted.FuncCost(labelDel, labelIns, labelRen)},
}

// labelWeight maps a label to one of 0.5, 0.75, 1 and 1.25 by the sum of
// its bytes.
func labelWeight(l string) float64 {
	s := 0
	for i := 0; i < len(l); i++ {
		s += int(l[i])
	}
	return 0.5 + 0.25*float64(s%4)
}

func labelDel(l string) float64 { return labelWeight(l) }

func labelIns(l string) float64 { return 1.75 - labelWeight(l) }

func labelRen(a, b string) float64 {
	if a == b {
		return 0
	}
	wa, wb := labelWeight(a), labelWeight(b)
	return 0.3 + 0.25*wa + 2*math.Abs(wa-wb)
}

// FuzzDistanceBounded fuzzes the bounded-distance contract over bracket
// tree pairs, arbitrary cutoffs and the cost models of boundedModels
// (model picks one, modulo their count): DistanceBounded(f, g, tau)
// must return (d, true) exactly when Distance(f, g) ≤ tau (with d the
// exact distance), and otherwise a lower bound in [tau, d]. Under
// non-unit models every comparison carries the ~1e-9 relative rounding
// pad that DistanceBounded documents: a distance within the pad of tau
// may land on either side. Small pairs additionally run the full
// differential oracle under the same model (all strategies, bounded
// cutoffs around the distance, Zhang–Shasha, naive).
//
// Run continuously with: go test -fuzz=FuzzDistanceBounded
func FuzzDistanceBounded(f *testing.F) {
	f.Add("{a{b}{c}}", "{a{b{d}}}", 1.5, uint8(0))
	f.Add("{a{b}{c}}", "{a{b{d}}}", 2.0, uint8(0))
	f.Add("{a}", "{a}", 0.0, uint8(0))
	f.Add("{a}", "{b}", 0.0, uint8(0))
	f.Add("{x{x{x{x}}}}", "{x}{", 3.0, uint8(0))
	f.Add("{a{a}{a}{a}}", "{a{a{a}{a}}}", math.Inf(1), uint8(0))
	f.Add("{l0{l1}{l2{l3}}}", "{l0{l2{l3}}{l1}}", -1.0, uint8(0))
	f.Add("{r{a{b}{c}}{d}}", "{r{d}{a{c}{b}}}", 4.0, uint8(0))
	f.Add("{a{b}{c}}", "{a{b{d}}}", 1.0, uint8(1))
	f.Add("{a{a}{a}{a}{a}{a}}", "{a{a}}", 3.0, uint8(1))
	f.Add("{a{b{c}}{d}{e}}", "{v{w{x}}{y}{z}}", 5.0, uint8(2))
	f.Add("{x{x{x{x{x{x{x}}}}}}}", "{x{x{x}{x}}{x{x}{x}}}", 3.0, uint8(2))
	f.Add("{l0{l1}{l2{l3}}}", "{l0{l2{l3}}{l1}}", 2.5, uint8(3))
	f.Add("{l1{l1{l2}}{l3}}", "{l0{l0}{l0{l0}}}", 1.75, uint8(3))

	f.Fuzz(func(t *testing.T, fs, gs string, tau float64, model uint8) {
		ft, err := ted.Parse(fs)
		if err != nil || ft.Len() > 60 {
			t.Skip()
		}
		gt, err := ted.Parse(gs)
		if err != nil || gt.Len() > 60 {
			t.Skip()
		}
		if math.IsNaN(tau) {
			t.Skip()
		}
		bm := boundedModels[int(model)%len(boundedModels)]
		pad := 0.0
		if bm.m != ted.UnitCost && !math.IsInf(tau, 0) {
			pad = 1e-9 * (1 + math.Abs(tau))
		}
		d := ted.Distance(ft, gt, ted.WithCost(bm.m))
		var st ted.Stats
		got, ok := ted.DistanceBounded(ft, gt, tau, ted.WithCost(bm.m), ted.WithStats(&st))
		if (d <= tau-pad && !ok) || (d > tau+pad && ok) {
			t.Fatalf("%s: DistanceBounded(tau=%v) ok=%v, Distance=%v\nF=%s\nG=%s", bm.name, tau, ok, d, fs, gs)
		}
		if ok && math.Abs(got-d) > pad {
			t.Fatalf("%s: DistanceBounded(tau=%v) = %v, Distance = %v\nF=%s\nG=%s", bm.name, tau, got, d, fs, gs)
		}
		if !ok && (got > d+pad || got < tau) {
			t.Fatalf("%s: DistanceBounded(tau=%v) lower bound %v outside [tau, %v]\nF=%s\nG=%s", bm.name, tau, got, d, fs, gs)
		}
		if st.PrunedSubproblems < 0 || st.Subproblems < 0 || st.PrunedKeyroots < 0 || st.PrunedKeyroots > 1 {
			t.Fatalf("%s: instrumentation out of range: %+v", bm.name, st)
		}
		if ft.Len()*gt.Len() <= 32*32 {
			if err := difftest.Check(ft, gt, bm.m); err != nil {
				t.Fatalf("%s: differential oracle: %v", bm.name, err)
			}
		}
	})
}
