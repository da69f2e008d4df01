package strategy

import "repro/internal/tree"

// AllLRH allows all six decomposition choices; it is the default
// restriction for OptStrategy and yields the paper's RTED strategy.
var AllLRH = [numChoices]bool{true, true, true, true, true, true}

// LROnly restricts the strategy search to left and right paths (the
// Zhang–Shasha family); used by the ablation experiments.
var LROnly = [numChoices]bool{LeftF: true, LeftG: true, RightF: true, RightG: true}

// HOnly restricts the search to heavy paths (the Klein/Demaine family).
var HOnly = [numChoices]bool{HeavyF: true, HeavyG: true}

// Opt computes the optimal LRH strategy for the pair (f, g) and the exact
// number of relevant subproblems GTED computes with it. It is a direct
// implementation of Algorithm 2 (OptStrategy) and runs in O(|f|·|g|) time
// and space.
func Opt(f, g *tree.Tree) (*Array, int64) {
	return OptRestricted(f, g, AllLRH)
}

// OptRestricted is Opt with the candidate set restricted to the allowed
// choices; at least one choice must be allowed. Restrictions support the
// ablation experiments (e.g. "how much do heavy paths buy over {L,R}?").
func OptRestricted(f, g *tree.Tree, allowed [numChoices]bool) (*Array, int64) {
	df, dg := NewDecomp(f), NewDecomp(g)
	return optWithDecomp(f, g, df, dg, allowed)
}

// OptD is Opt with caller-precomputed decompositions, so that a batch of
// pairs over the same trees computes each tree's Decomp once.
func OptD(f, g *tree.Tree, df, dg *Decomp) (*Array, int64) {
	return optWithDecomp(f, g, df, dg, AllLRH)
}

func optWithDecomp(f, g *tree.Tree, df, dg *Decomp, allowed [numChoices]bool) (*Array, int64) {
	s := new(OptScratch)
	return s.opt(f, g, df, dg, allowed, CountPrice)
}

// OptScratch holds the O(|f|·|g|) working memory of OptStrategy for
// reuse across pairs. Buffers grow to the largest pair served (Shrink
// drops them); the returned strategy Array is owned by the scratch and
// is overwritten by the next call, so it must not be retained after the
// pair's GTED run.
type OptScratch struct {
	// Per-cell cost sums: lv/rv/hv[v*|g|+w] accumulate
	// Σ_{F' ∈ F_v − γ} cost(F', G_w) over the relevant subtrees of the
	// left/right/heavy path of F_v.
	lv, rv, hv []int64
	// Per-w cost sums of the current v: the symmetric sums over the
	// relevant subtrees of the paths of G_w.
	lw, rw, hw []int64
	// Per-w structure of g, filled once per call so the O(|f|·|g|) loop
	// reads two flat arrays instead of the tree: gpar[w] is w's parent
	// (-1 at the root) and gpos[w] says which of the parent's path
	// children w is (pathLeft, pathRight, pathHeavy bits).
	gpar []int32
	gpos []uint8
	arr  Array
}

// disallowedPrice is added to the cost of a choice OptRestricted does
// not allow. Candidate costs are O(n³) times the largest weight of the
// price, below 2^56 for two 10⁵-node trees under TimePrice, so a
// priced-out choice never wins and adding the penalty cannot overflow
// int64.
const disallowedPrice = 1 << 60

// Path-child bits of OptScratch.gpos.
const (
	pathLeft uint8 = 1 << iota
	pathRight
	pathHeavy
)

// Opt computes the strategy for (f, g) with the least total price p,
// like OptD under CountPrice, drawing all working memory (including the
// returned Array) from the scratch. The returned cost is the optimum's
// price; under CountPrice it is its number of relevant subproblems.
func (s *OptScratch) Opt(f, g *tree.Tree, df, dg *Decomp, p Price) (*Array, int64) {
	return s.opt(f, g, df, dg, AllLRH, p)
}

// Shrink drops the scratch's per-cell buffers (the three cost-sum arrays
// and the strategy array) when they were sized for more than maxCells
// subtree pairs, so a pooled scratch does not keep the memory of one
// huge pair.
func (s *OptScratch) Shrink(maxCells int) {
	if cap(s.lv) > maxCells || cap(s.arr.Choices) > maxCells {
		s.lv, s.rv, s.hv = nil, nil, nil
		s.arr = Array{}
	}
}

// growScratch resizes a scratch buffer, reusing capacity; the contents
// are unspecified.
func growScratch[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

func (s *OptScratch) opt(f, g *tree.Tree, df, dg *Decomp, allowed [numChoices]bool, p Price) (*Array, int64) {
	nf, ng := f.Len(), g.Len()
	s.lv = growScratch(s.lv, nf*ng)
	s.rv = growScratch(s.rv, nf*ng)
	s.hv = growScratch(s.hv, nf*ng)
	s.lw = growScratch(s.lw, ng)
	s.rw = growScratch(s.rw, ng)
	s.hw = growScratch(s.hw, ng)
	s.gpar = growScratch(s.gpar, ng)
	s.gpos = growScratch(s.gpos, ng)
	// lv/rv/hv accumulate with += and must start zeroed; lw/rw/hw are
	// reset at the top of every v-iteration by the main loop.
	clear(s.lv)
	clear(s.rv)
	clear(s.hv)
	for w := 0; w < ng; w++ {
		pw := g.Parent(w)
		s.gpar[w] = int32(pw)
		s.gpos[w] = 0
		if pw != -1 {
			s.gpos[w] = pathBits(g, pw, w)
		}
	}
	s.arr = Array{NF: nf, NG: ng, Choices: growScratch(s.arr.Choices, nf*ng), name: p.strategyName()}
	cost := optCore(f, g, df, dg, allowed, p, s)
	return &s.arr, cost
}

// pathBits reports which of the path children of p the child c is.
func pathBits(t *tree.Tree, p, c int) uint8 {
	var b uint8
	if c == t.LeftChild(p) {
		b |= pathLeft
	}
	if c == t.RightChild(p) {
		b |= pathRight
	}
	if c == t.HeavyChild(p) {
		b |= pathHeavy
	}
	return b
}

// optCore is Algorithm 2 with every term priced by p: a pair decomposed
// along a path costs p.Call plus its single-path subproblems at p.I
// (heavy paths, ΔI) or p.LR (left and right paths) each, plus the cost
// of every relevant subtree pair. Under CountPrice this is the paper's
// cost formula term for term.
func optCore(f, g *tree.Tree, df, dg *Decomp, allowed [numChoices]bool, p Price, s *OptScratch) int64 {
	nf, ng := f.Len(), g.Len()
	lv, rv, hv := s.lv, s.rv, s.hv
	lw, rw, hw := s.lw[:ng], s.rw[:ng], s.hw[:ng]
	gpar, gpos := s.gpar[:ng], s.gpos[:ng]
	dgA, dgFL, dgFR := dg.A[:ng], dg.FL[:ng], dg.FR[:ng]
	// A choice the caller does not allow is priced out rather than
	// skipped, which keeps branches on it out of the inner loop: every
	// allowed candidate costs less than disallowedPrice, so a priced-out
	// one never wins and the allowed choices tie-break as before.
	var pen [numChoices]int64
	for c, ok := range allowed {
		if !ok {
			pen[c] = disallowedPrice
		}
	}
	penHF, penHG, penLF, penLG, penRF, penRG := pen[HeavyF], pen[HeavyG], pen[LeftF], pen[LeftG], pen[RightF], pen[RightG]

	var cmin int64
	for v := 0; v < nf; v++ {
		// The w-side sums are per-v quantities: they accumulate costs of
		// pairs (F_v, G') for relevant subtrees G' of G_w, so they must
		// restart for every v. (The paper's pseudocode only spells out
		// the leaf reset; internal entries are accumulated with += and
		// would otherwise leak across v-iterations.)
		clear(lw)
		clear(rw)
		clear(hw)
		// Per-v factors of the six candidate costs, priced.
		szv := int64(f.Size(v))
		hvF, lrvF := szv*p.I, szv*p.LR
		aV, flV, frV := df.A[v]*p.I, df.FL[v]*p.LR, df.FR[v]*p.LR
		row := v * ng
		lvRow, rvRow, hvRow := lv[row:row+ng], rv[row:row+ng], hv[row:row+ng]
		choices := s.arr.Choices[row : row+ng]
		// Where the row's costs propagate (lines 15–22): into the parent
		// row of F, continuing the parent's path sum when v is the path
		// child, otherwise as a relevant subtree's full optimal cost.
		pv := f.Parent(v)
		var lvUp, rvUp, hvUp []int64
		var vPos uint8
		if pv != -1 {
			prow := pv * ng
			lvUp, rvUp, hvUp = lv[prow:prow+ng], rv[prow:prow+ng], hv[prow:prow+ng]
			vPos = pathBits(f, pv, v)
		}
		for w := 0; w < ng; w++ {
			szw := int64(g.Size(w))

			// The six candidate costs (Algorithm 2 lines 7–12), scanned
			// in the paper's order so ties resolve identically.
			cmin = hvF*dgA[w] + hvRow[w] + penHF
			best := HeavyF
			if c := szw*aV + hw[w] + penHG; c < cmin {
				cmin, best = c, HeavyG
			}
			if c := lrvF*dgFL[w] + lvRow[w] + penLF; c < cmin {
				cmin, best = c, LeftF
			}
			if c := szw*flV + lw[w] + penLG; c < cmin {
				cmin, best = c, LeftG
			}
			if c := lrvF*dgFR[w] + rvRow[w] + penRF; c < cmin {
				cmin, best = c, RightF
			}
			if c := szw*frV + rw[w] + penRG; c < cmin {
				cmin, best = c, RightG
			}
			// Every candidate makes one single-path call for this pair.
			cmin += p.Call
			choices[w] = best

			if lvUp != nil {
				if vPos&pathLeft != 0 {
					lvUp[w] += lvRow[w]
				} else {
					lvUp[w] += cmin
				}
				if vPos&pathRight != 0 {
					rvUp[w] += rvRow[w]
				} else {
					rvUp[w] += cmin
				}
				if vPos&pathHeavy != 0 {
					hvUp[w] += hvRow[w]
				} else {
					hvUp[w] += cmin
				}
			}
			if pw := gpar[w]; pw >= 0 {
				wPos := gpos[w]
				if wPos&pathLeft != 0 {
					lw[pw] += lw[w]
				} else {
					lw[pw] += cmin
				}
				if wPos&pathRight != 0 {
					rw[pw] += rw[w]
				} else {
					rw[pw] += cmin
				}
				if wPos&pathHeavy != 0 {
					hw[pw] += hw[w]
				} else {
					hw[pw] += cmin
				}
			}
		}
	}
	// cmin still holds the cost of the last pair, (root(F), root(G)),
	// which is the total optimal cost.
	return cmin
}
