package gted

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/naive"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/treegen"
	"repro/internal/zs"
)

// strategiesFor returns the five algorithms of the paper plus the batch
// engine's time-priced optimum, a strategy that mixes path types along
// different paths than the paper's, for the pair (f, g).
func strategiesFor(f, g *tree.Tree) []strategy.Named {
	rted, _ := strategy.Opt(f, g)
	priced, _ := new(strategy.OptScratch).Opt(f, g, strategy.TimePrice)
	return []strategy.Named{
		strategy.ZhangL(),
		strategy.ZhangR(),
		strategy.KleinH(),
		strategy.DemaineH(f, g),
		rted,
		priced,
	}
}

// randomStrategy draws an arbitrary valid LRH strategy; GTED must produce
// the correct distance under any of them.
func randomStrategy(rng *rand.Rand, f, g *tree.Tree) strategy.Named {
	a := strategy.NewArray(f.Len(), g.Len(), "random")
	for i := range a.Choices {
		a.Choices[i] = strategy.Choice(rng.Intn(6))
	}
	return a
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestDistancesAgainstNaive cross-validates every algorithm against the
// independent memoized recursion on many small random tree pairs, under
// both the unit model and an asymmetric weighted model (which exercises
// cost transposition when strategies decompose the right-hand tree).
func TestDistancesAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	models := []cost.Model{
		cost.Unit{},
		cost.Weighted{DeleteW: 1.3, InsertW: 0.7, RenameW: 2.1},
	}
	for iter := 0; iter < 120; iter++ {
		nf := 1 + rng.Intn(14)
		ng := 1 + rng.Intn(14)
		f := treegen.Random(rng, treegen.RandomSpec{Size: nf, MaxDepth: 6, MaxFanout: 4, Labels: 3})
		g := treegen.Random(rng, treegen.RandomSpec{Size: ng, MaxDepth: 6, MaxFanout: 4, Labels: 3})
		for _, m := range models {
			want := naive.Dist(f, g, m)
			if zd := zs.Dist(f, g, m); !approx(zd, want) {
				t.Fatalf("iter %d: zs.Dist=%v naive=%v\nF=%s\nG=%s", iter, zd, want, f, g)
			}
			for _, s := range strategiesFor(f, g) {
				r := New(f, g, m, s)
				got := r.Run()
				if !approx(got, want) {
					t.Fatalf("iter %d: %s=%v naive=%v (model %T)\nF=%s\nG=%s",
						iter, s.Name(), got, want, m, f, g)
				}
			}
			for k := 0; k < 3; k++ {
				s := randomStrategy(rng, f, g)
				if got := New(f, g, m, s).Run(); !approx(got, want) {
					t.Fatalf("iter %d: random strategy=%v naive=%v (model %T)\nF=%s\nG=%s",
						iter, got, want, m, f, g)
				}
			}
		}
	}
}

// TestSubtreeMatrixAgainstZS verifies that GTED really fills the whole
// subtree-pair distance matrix and that it matches the standalone
// Zhang–Shasha implementation cell by cell.
func TestSubtreeMatrixAgainstZS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 25; iter++ {
		f := treegen.Random(rng, treegen.RandomSpec{Size: 2 + rng.Intn(30), MaxDepth: 8, MaxFanout: 4, Labels: 4})
		g := treegen.Random(rng, treegen.RandomSpec{Size: 2 + rng.Intn(30), MaxDepth: 8, MaxFanout: 4, Labels: 4})
		want := zs.TreeDists(f, g, cost.Unit{})
		for _, s := range strategiesFor(f, g) {
			r := New(f, g, cost.Unit{}, s)
			r.Run()
			got := r.Matrix()
			for v := 0; v < f.Len(); v++ {
				for w := 0; w < g.Len(); w++ {
					if !approx(got[v*g.Len()+w], want[v*g.Len()+w]) {
						t.Fatalf("iter %d %s: D[%d][%d]=%v want %v\nF=%s\nG=%s",
							iter, s.Name(), v, w, got[v*g.Len()+w], want[v*g.Len()+w], f, g)
					}
				}
			}
		}
	}
}

// TestInstrumentedCountsMatchAnalytic checks that the DP cell counters of
// the real single-path functions equal the analytic counts derived from
// Lemmas 1-4, for all strategies on random trees.
func TestInstrumentedCountsMatchAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		f := treegen.Random(rng, treegen.RandomSpec{Size: 2 + rng.Intn(40), MaxDepth: 8, MaxFanout: 5, Labels: 2})
		g := treegen.Random(rng, treegen.RandomSpec{Size: 2 + rng.Intn(40), MaxDepth: 8, MaxFanout: 5, Labels: 2})
		for _, s := range strategiesFor(f, g) {
			want := strategy.Count(f, g, s)
			r := New(f, g, cost.Unit{}, s)
			r.Run()
			if got := r.Stats().Subproblems; got != want.Total {
				t.Fatalf("iter %d %s: instrumented %d, analytic %d\nF=%s\nG=%s",
					iter, s.Name(), got, want.Total, f, g)
			}
		}
	}
}

// TestRTEDOptimality asserts Theorem-style optimality on random inputs:
// the count of the strategy produced by OptStrategy is no larger than any
// competitor's and matches both the baseline algorithm's optimum and the
// analytic count of the produced array.
func TestRTEDOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 40; iter++ {
		f := treegen.Random(rng, treegen.RandomSpec{Size: 2 + rng.Intn(50), MaxDepth: 9, MaxFanout: 5, Labels: 2})
		g := treegen.Random(rng, treegen.RandomSpec{Size: 2 + rng.Intn(50), MaxDepth: 9, MaxFanout: 5, Labels: 2})
		opt, optCost := strategy.Opt(f, g)
		if c := strategy.Count(f, g, opt); c.Total != optCost {
			t.Fatalf("iter %d: OptStrategy reports cost %d but its array counts %d", iter, optCost, c.Total)
		}
		if _, base := strategy.Baseline(f, g); base != optCost {
			t.Fatalf("iter %d: baseline optimum %d != OptStrategy %d", iter, base, optCost)
		}
		for _, s := range []strategy.Named{
			strategy.ZhangL(), strategy.ZhangR(), strategy.KleinH(), strategy.DemaineH(f, g),
		} {
			if c := strategy.Count(f, g, s); c.Total < optCost {
				t.Fatalf("iter %d: %s count %d beats 'optimal' %d\nF=%s\nG=%s",
					iter, s.Name(), c.Total, optCost, f, g)
			}
		}
		// A handful of random strategies must not beat the optimum either.
		for k := 0; k < 5; k++ {
			s := randomStrategy(rng, f, g)
			if c := strategy.Count(f, g, s); c.Total < optCost {
				t.Fatalf("iter %d: random strategy count %d beats optimum %d", iter, c.Total, optCost)
			}
		}
	}
}

// TestShapePairs runs the algorithms on the paper's synthetic shapes
// (including cross-shape pairs, the hard case of Table 1) and checks
// distance agreement plus RTED optimality.
func TestShapePairs(t *testing.T) {
	sizes := []int{1, 2, 3, 17, 40}
	for _, nf := range sizes {
		for _, ng := range sizes {
			for _, sf := range treegen.Shapes {
				for _, sg := range treegen.Shapes {
					f, g := sf.Build(nf), sg.Build(ng)
					want := naive.Dist(f, g, cost.Unit{})
					rted, optCost := strategy.Opt(f, g)
					for _, s := range []strategy.Named{
						strategy.ZhangL(), strategy.ZhangR(), strategy.KleinH(), strategy.DemaineH(f, g), rted,
					} {
						r := New(f, g, cost.Unit{}, s)
						if got := r.Run(); !approx(got, want) {
							t.Fatalf("%s(%d) vs %s(%d) %s: got %v want %v", sf, nf, sg, ng, s.Name(), got, want)
						}
						if c := strategy.Count(f, g, s); c.Total != r.Stats().Subproblems {
							t.Fatalf("%s(%d) vs %s(%d) %s: count mismatch analytic %d instrumented %d",
								sf, nf, sg, ng, s.Name(), c.Total, r.Stats().Subproblems)
						}
						if c := strategy.Count(f, g, s); c.Total < optCost {
							t.Fatalf("%s(%d) vs %s(%d): %s count %d < optimum %d",
								sf, nf, sg, ng, s.Name(), c.Total, optCost)
						}
					}
				}
			}
		}
	}
}
