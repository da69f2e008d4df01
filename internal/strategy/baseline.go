package strategy

import (
	"math"

	"repro/internal/tree"
)

// Baseline computes the optimal LRH strategy with the baseline algorithm
// of Section 6.1: a direct memoized implementation of the cost formula
// (Figure 5) that re-walks the relevant subtrees of every candidate path
// at every pair. Runtime is Θ(n³) in the worst case (Theorem 2); the
// result is identical to Opt's and the two implementations cross-check
// each other in the test suite.
func Baseline(f, g *tree.Tree) (*Array, int64) {
	return BaselineRestricted(f, g, AllLRH)
}

// BaselineRestricted is Baseline over a restricted candidate set.
func BaselineRestricted(f, g *tree.Tree, allowed [numChoices]bool) (*Array, int64) {
	return baseline(f, g, allowed, CountPrice)
}

// baseline minimizes the strategy price p over the allowed choices; under
// CountPrice the price is the subproblem count.
func baseline(f, g *tree.Tree, allowed [numChoices]bool, p Price) (*Array, int64) {
	df, dg := NewDecomp(f), NewDecomp(g)
	nf, ng := f.Len(), g.Len()
	str := NewArray(nf, ng, "baseline")
	memo := make([]int64, nf*ng)
	for i := range memo {
		memo[i] = -1
	}

	var cost func(v, w int) int64
	cost = func(v, w int) int64 {
		idx := v*ng + w
		if memo[idx] >= 0 {
			return memo[idx]
		}
		// Guard against re-entrancy while this pair is being evaluated;
		// the recursion only descends into strictly smaller subtrees, so
		// this cannot fire, but a sentinel makes that assumption checked.
		memo[idx] = math.MaxInt64
		best := int64(math.MaxInt64)
		bestChoice := HeavyF
		for c := Choice(0); c < numChoices; c++ {
			if !allowed[c] {
				continue
			}
			weight := p.LR
			if c.Type() == Heavy {
				weight = p.I
			}
			total := p.Call
			if !c.InG() {
				total += weight * int64(f.Size(v)) * spfCount(dg, w, c.Type())
				ForEachHanging(f, v, c.Type(), func(r int) {
					total += cost(r, w)
				})
			} else {
				total += weight * int64(g.Size(w)) * spfCount(df, v, c.Type())
				ForEachHanging(g, w, c.Type(), func(r int) {
					total += cost(v, r)
				})
			}
			if total < best {
				best = total
				bestChoice = c
			}
		}
		memo[idx] = best
		str.Set(v, w, bestChoice)
		return best
	}
	total := cost(f.Root(), g.Root())
	return str, total
}

// spfCount returns the per-F-node subproblem count of the single-path
// function paired with a path of type pt in the OTHER tree's
// decomposition d at subtree w (Lemma 4): ΔI computes |A(G_w)| and ΔL/ΔR
// compute |F(G_w, Γ)| subproblems per relevant subforest of F.
func spfCount(d *Decomp, w int, pt PathType) int64 {
	switch pt {
	case Left:
		return d.FL[w]
	case Right:
		return d.FR[w]
	default:
		return d.A[w]
	}
}
