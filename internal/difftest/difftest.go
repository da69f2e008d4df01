// Package difftest cross-checks every tree-edit-distance engine in this
// repository against the others on one tree pair: GTED under all five
// paper strategies and the batch engine's priced strategy, bounded GTED
// at a spread of cutoffs around the true distance, the standalone
// Zhang–Shasha implementation, and (on small pairs) the naive memoized
// recursion. It exists so that correctness
// tests and fuzzers across packages share one exhaustive oracle instead
// of each re-implementing a weaker comparison.
package difftest

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/naive"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/treegen"
	"repro/internal/zs"
)

// naiveLimit caps |F|·|G| for the O(|F|²·|G|²) naive oracle.
const naiveLimit = 32 * 32

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// strategies returns the five named strategies of the paper for (f, g)
// and the batch engine's default, RTED's strategy priced in time.
func strategies(f, g *tree.Tree) []strategy.Named {
	rted, _ := strategy.Opt(f, g)
	var s strategy.OptScratch
	priced, _ := s.Opt(f, g, strategy.TimePrice)
	return []strategy.Named{
		strategy.ZhangL(),
		strategy.ZhangR(),
		strategy.KleinH(),
		strategy.DemaineH(f, g),
		rted,
		priced,
	}
}

// Check cross-checks all engines on the pair (f, g) under model m and
// returns a descriptive error on the first divergence:
//
//   - zs and (within naiveLimit) naive agree with GTED under every
//     strategy;
//   - for every strategy, bounded GTED at τ ∈ {0, d−ε, d, d+ε, d/2, ∞}
//     honors the contract: (d, true) iff d ≤ τ, (+Inf, false) otherwise,
//     with d bit-identical to the strategy's exact run under unit costs,
//     and never evaluates more subproblems than the exact run;
//   - every bounded run its root check did not refuse accounts for every
//     cell of the exact run: each is either evaluated or skipped by the
//     band (Subproblems + PrunedSubproblems equals the exact run's
//     Subproblems). At the same cutoffs the top-k mode (SetCutoff and
//     Run, no root check) does too, and refuses nothing (PrunedKeyroots
//     is zero). The identity holds per row in ΔI and in both ΔL/ΔR row
//     layouts, so it checks the band's accounting whichever layout a
//     keyroot picked.
func Check(f, g *tree.Tree, m cost.Model) error {
	want := zs.Dist(f, g, m)
	if f.Len()*g.Len() <= naiveLimit {
		if nd := naive.Dist(f, g, m); !approx(nd, want) {
			return fmt.Errorf("naive=%v zs=%v\nF=%s\nG=%s", nd, want, f, g)
		}
	}
	_, unit := m.(cost.Unit)
	for _, s := range strategies(f, g) {
		exact := gted.New(f, g, m, s)
		d := exact.Run()
		if !approx(d, want) {
			return fmt.Errorf("%s=%v zs=%v\nF=%s\nG=%s", s.Name(), d, want, f, g)
		}
		es := exact.Stats()
		for _, tau := range []float64{0, d - 0.5, d, d + 0.5, d / 2, math.Inf(1)} {
			b := gted.New(f, g, m, s)
			bd, ok := b.RunBounded(tau)
			if ok != (d <= tau) {
				return fmt.Errorf("%s bounded tau=%v: ok=%v but d=%v\nF=%s\nG=%s",
					s.Name(), tau, ok, d, f, g)
			}
			switch {
			case ok && unit && bd != d:
				return fmt.Errorf("%s bounded tau=%v: got %v, exact %v\nF=%s\nG=%s",
					s.Name(), tau, bd, d, f, g)
			case ok && !approx(bd, d):
				return fmt.Errorf("%s bounded tau=%v: got %v !~ exact %v\nF=%s\nG=%s",
					s.Name(), tau, bd, d, f, g)
			case !ok && !math.IsInf(bd, 1):
				return fmt.Errorf("%s bounded tau=%v: exceeded run returned %v, want +Inf",
					s.Name(), tau, bd)
			}
			if st := b.Stats(); st.Subproblems > es.Subproblems {
				return fmt.Errorf("%s bounded tau=%v: evaluated %d subproblems, exact %d",
					s.Name(), tau, st.Subproblems, es.Subproblems)
			} else if st.PrunedKeyroots == 0 && st.Subproblems+st.PrunedSubproblems != es.Subproblems {
				return fmt.Errorf("%s bounded tau=%v: %d evaluated + %d pruned cells, exact run %d\nF=%s\nG=%s",
					s.Name(), tau, st.Subproblems, st.PrunedSubproblems, es.Subproblems, f, g)
			}

			k := gted.New(f, g, m, s)
			k.SetCutoff(tau)
			k.Run()
			if st := k.Stats(); st.Subproblems+st.PrunedSubproblems != es.Subproblems || st.PrunedKeyroots != 0 {
				return fmt.Errorf("%s top-k tau=%v: %d evaluated + %d pruned cells (%d keyroots refused), exact run %d\nF=%s\nG=%s",
					s.Name(), tau, st.Subproblems, st.PrunedSubproblems, st.PrunedKeyroots, es.Subproblems, f, g)
			}
		}
	}
	return nil
}

// Corpus returns a deterministic shape-diverse tree collection for
// differential runs: the paper's synthetic shapes at two sizes plus
// bounded random trees over a small alphabet.
func Corpus(seed int64, n, maxSize int) []*tree.Tree {
	var out []*tree.Tree
	for _, sz := range []int{maxSize, maxSize/2 + 1} {
		for _, s := range treegen.Shapes {
			out = append(out, s.Build(sz))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for len(out) < n {
		out = append(out, treegen.Random(rng, treegen.RandomSpec{
			Size: 1 + rng.Intn(maxSize), MaxDepth: 8, MaxFanout: 5, Labels: 1 + rng.Intn(5),
		}))
	}
	return out[:n]
}
