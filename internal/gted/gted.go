// Package gted implements GTED, the general tree edit distance algorithm
// of the RTED paper (Algorithm 1), together with the three quadratic-space
// single-path functions it dispatches to:
//
//   - ΔL for left paths and ΔR for right paths (Zhang–Shasha-style forest
//     DPs, implemented once and instantiated over mirrored coordinate
//     views), and
//   - ΔI for arbitrary (in practice heavy) paths (a Demaine-style DP over
//     the full decomposition of the second tree).
//
// GTED executes any LRH strategy; with the optimal strategy from
// internal/strategy it is RTED. Every single-path function counts the
// relevant subproblems it evaluates, and those counters match the
// analytic counts of strategy.Count exactly.
package gted

import (
	"math"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// Stats reports instrumentation for one GTED run.
type Stats struct {
	// Subproblems is the number of relevant subproblems evaluated: the
	// count of DP cells with two non-empty forests across all
	// single-path function invocations. Bounded runs (SetCutoff) count
	// only the cells they actually compute.
	Subproblems int64
	// PrunedSubproblems is the number of relevant subproblems a bounded
	// run skipped: DP cells whose forest sizes alone prove the cell value
	// exceeds the pair cutoff, skipped as whole loop ranges of the
	// structural band instead of computed. It additionally includes, for
	// every keyroot subproblem skipped wholesale by the keyroot-level
	// band, the product of the two subtree sizes — a lower bound on the
	// relevant cells that DP would have visited. Always zero for exact
	// runs.
	PrunedSubproblems int64
	// BandSkippedCells counts the cells skipped as whole loop ranges by
	// the structural band (never individually tested). Every in-loop
	// pruned cell is a band skip, so BandSkippedCells plus the
	// keyroot-level contributions equals PrunedSubproblems.
	BandSkippedCells int64
	// PrunedKeyroots counts keyroot subproblem DPs skipped entirely by
	// the keyroot-level band: subtree pairs whose size, height or depth-
	// spectra offset alone prices the pair above its saturation cutoff.
	PrunedKeyroots int64
	// CompressedRows counts forest-distance DP rows materialized in
	// band-compressed form: only the ≤ maxD+maxI+1 admissible cells of
	// each row are stored, offset-indexed by the band diagonal. Zero for
	// exact runs and when no band is narrower than its row.
	CompressedRows int64
	// RowCells counts the DP row cells materialized across all
	// single-path-function row storage: a dense ΔL/ΔR keyroot contributes
	// rows×(s2k+1), a band-compressed one rows×(maxD+maxI+1), and every
	// ΔI chain-state row its full decomposition-row length. Multiplied by
	// 8 it is the bytes of row storage streamed per computation.
	RowCells int64
	// SPFCalls counts single-path function invocations (one per subtree
	// pair the strategy decomposes).
	SPFCalls int64
	// SPFByChoice breaks SPFCalls down by decomposition choice.
	SPFByChoice [6]int64
	// MaxLiveRows is the peak number of simultaneously retained ΔI rows;
	// it measures the working memory of the heavy-path DP, whose rows are
	// released by reference count once no later chain state reads them.
	MaxLiveRows int
}

// Runner executes GTED for one tree pair and one strategy. A Runner is
// single-use: create, call Run, then query distances and stats.
type Runner struct {
	f, g  *tree.Tree
	cm    *cost.Compiled // oriented (f, g)
	cmT   *cost.Compiled // transposed, built lazily
	strat strategy.Strategy

	d    []float64 // |F|×|G| subtree-pair distances, row-major
	seen []bool    // GTED pair memo

	stats Stats

	// ar holds all reusable scratch (forest-distance rows, the ΔI row
	// pool, chain and decomposition buffers). Stand-alone runners own a
	// private arena; batch workers share one arena across many runners.
	ar       *Arena
	liveRows int

	// Mirror-coordinate leafmost arrays for ΔR: for a node with mirror
	// postorder id c, lfm[c] is the mirror postorder id of its rightmost
	// leaf descendant (the "leftmost leaf" of the mirrored tree).
	lfmF, lfmG []int32

	// Bounded mode (SetCutoff): tau is the caller's cutoff, abortEarly
	// enables the global early exit, exceeded records that the run proved
	// the root distance greater than tau. cb/cbT cache the per-node cost
	// extrema of the two cost orientations.
	tau        float64
	bounded    bool
	abortEarly bool
	exceeded   bool
	cb, cbT    opCosts

	// Per-subtree heights (leaf = 0) of the two trees, built lazily for
	// the keyroot-level band; hReady guards the one-time fill.
	hF, hG []int32
	hReady bool
	// Quantized per-subtree depth spectra (SpectraBuckets suffix counts
	// per node) of the two trees, consumed by the keyroot-level band and
	// built lazily into arena scratch; spReady guards the one-time fill.
	spF, spG []int32
	spReady  bool
	// Per-subtree rename floors (cost.Compiled.RenFloors) of the two
	// sides, built lazily for the keyroot-level band under non-unit
	// models; nil under unit costs.
	renF, renG []float64
	renReady   bool
}

// opCosts holds the extrema of the per-node delete/insert costs of one
// cost orientation: the cheapest operations drive the size-difference
// band pruning, the costliest ones the subproblem-boundary slack.
type opCosts struct {
	dmin, imin float64
	dmax, imax float64
	set        bool
}

func scanOpCosts(cm *cost.Compiled) opCosts {
	if cm.IsUnit() {
		return opCosts{dmin: 1, imin: 1, dmax: 1, imax: 1, set: true}
	}
	oc := opCosts{dmin: math.Inf(1), imin: math.Inf(1), set: true}
	for _, c := range cm.Del {
		if c < oc.dmin {
			oc.dmin = c
		}
		if c > oc.dmax {
			oc.dmax = c
		}
	}
	for _, c := range cm.Ins {
		if c < oc.imin {
			oc.imin = c
		}
		if c > oc.imax {
			oc.imax = c
		}
	}
	return oc
}

// opCostsFor returns (computing on first use) the cost extrema of the
// orientation cm, which is always one of the runner's two compiled forms.
func (r *Runner) opCostsFor(cm *cost.Compiled) *opCosts {
	c := &r.cb
	if cm != r.cm {
		c = &r.cbT
	}
	if !c.set {
		*c = scanOpCosts(cm)
	}
	return c
}

// New prepares a GTED runner for the pair (f, g) under cost model m and
// strategy s.
func New(f, g *tree.Tree, m cost.Model, s strategy.Strategy) *Runner {
	return NewCompiled(f, g, cost.Compile(m, f, g), s)
}

// NewCompiled is New with precompiled costs (for callers that reuse the
// compilation across runs).
func NewCompiled(f, g *tree.Tree, cm *cost.Compiled, s strategy.Strategy) *Runner {
	return NewInArena(f, g, cm, s, NewArena())
}

// NewInArena is NewCompiled with caller-owned scratch memory: all DP
// tables are carved out of ar, which grows to the largest pair it has
// served and is reused without further allocation. Creating a new runner
// on an arena invalidates the distance matrix of every earlier runner
// backed by the same arena.
func NewInArena(f, g *tree.Tree, cm *cost.Compiled, s strategy.Strategy, ar *Arena) *Runner {
	n := f.Len() * g.Len()
	r := &Runner{
		f:     f,
		g:     g,
		cm:    cm,
		strat: s,
		ar:    ar,
		d:     growF64(&ar.d, n),
		seen:  growBool(&ar.seen, n),
	}
	for i := range r.seen {
		r.seen[i] = false
	}
	return r
}

// SetMirrorLeafmost supplies precomputed mirror-coordinate leafmost
// arrays for the two trees (as cached by batch preparation); either may
// be nil, in which case the runner computes it on first use by ΔR.
func (r *Runner) SetMirrorLeafmost(lfmF, lfmG []int32) {
	r.lfmF, r.lfmG = lfmF, lfmG
}

// Run computes the distance between the two trees (and, as GTED always
// does, between every pair of their subtrees).
func (r *Runner) Run() float64 {
	r.gted(r.f.Root(), r.g.Root())
	return r.Dist(r.f.Root(), r.g.Root())
}

// SetCutoff puts the runner in bounded mode: DP cells whose forest sizes
// alone prove their value greater than the pair's local cutoff (tau plus
// the subproblem slack, see pairCutoff) are skipped instead of computed.
// Every computed value at most its cutoff stays bit-identical to the
// exact run's, so after Run the distance matrix holds, for each subtree
// pair, either the exact distance or +Inf/an overestimate that is
// provably above the pair cutoff.
//
// The skipped cells form a structural band: for a fixed F-side forest
// size the admissible G-side sizes form one contiguous interval
// [fSz−maxD, fSz+maxI] (maxD/maxI are the most cheapest-cost
// deletions/insertions the cutoff can pay for, bandWidth), so the DP
// loops iterate only that interval and account the rest as whole
// skipped spans. Any branch of an in-band cell that would read an
// out-of-band cell is priced at +Inf instead — sound, since the
// out-of-band forest pair needs more than maxD deletions or maxI
// insertions, so its true value already exceeds the cutoff and the
// branch using it cannot be the minimum of any value at most the
// cutoff. Skipped cells that publish into the subtree-distance matrix
// (tree×tree cells) are saturated there to +Inf.
//
// When the band is narrower than the row, ΔL/ΔR rows store only their
// admissible cells, offset-indexed by the band diagonal; a cell outside
// the slab has no storage at all. Every read that can cross the band
// edge carries the same integer in-band predicate as the full-width
// layout, and an out-of-band read yields a virtual +Inf without touching
// memory, so the two layouts compute bit-identical cell values and skip
// exactly the same cells. Each keyroot picks its layout: compressed when
// maxD+maxI+1 is below the row width, full-width otherwise.
//
// The band widths are priced not at the global cheapest delete/insert
// but at the cheapest cost over the label set actually present in the
// relevant subtree (cost.Compiled.DelSub/InsSub): the deletions that
// shrink an F-side prefix all remove nodes of the current keyroot's
// subtree, and the insertions that grow a G-side prefix all add nodes of
// the G keyroot's subtree, so each is bounded below by its subtree's own
// price floor. A regional floor is ≥ the global one (a subtree's label
// set is a subset), so every skipped cell still satisfies the invariant:
// its true value exceeds the cutoff under the region's own prices.
//
// With abortEarly set the run additionally stops as soon as any subtree
// pair proves the root distance greater than tau (Exceeded reports it);
// the matrix is then partial and only the exceeded verdict is usable.
// abortEarly runs also stop before a keyroot subproblem whose size,
// height, depth-spectra or rename-floor offset alone prices the pair
// above its saturation cutoff (subtreeLower, spectraHopeless) — the DP
// for that pair never starts. A +Inf tau disables bounded mode.
func (r *Runner) SetCutoff(tau float64, abortEarly bool) {
	r.tau = tau
	r.bounded = !math.IsInf(tau, 1)
	r.abortEarly = abortEarly && r.bounded
}

// RunBounded is Run with cutoff tau: it returns (d, true) iff the exact
// distance d is at most tau, and (+Inf, false) — typically after
// abandoning most of the DP — when the distance provably exceeds tau.
func (r *Runner) RunBounded(tau float64) (float64, bool) {
	if math.IsNaN(tau) {
		// No distance is ≤ NaN; don't let NaN comparisons (all false)
		// masquerade as an unbounded run.
		r.exceeded = true
		return math.Inf(1), false
	}
	r.SetCutoff(tau, true)
	r.gted(r.f.Root(), r.g.Root())
	if r.exceeded {
		return math.Inf(1), false
	}
	d := r.Dist(r.f.Root(), r.g.Root())
	if d > tau {
		return math.Inf(1), false
	}
	return d, true
}

// Exceeded reports whether a bounded run aborted because the distance
// provably exceeds the cutoff.
func (r *Runner) Exceeded() bool { return r.exceeded }

// pairCutoff returns the saturation cutoff of the subtree pair (v, w): a
// value that the true δ(F_v, G_w) must exceed before the root distance
// provably exceeds tau. Restricting an optimal mapping of (F, G) to
// F_v × G_w turns at most |G|−|G_w| matches into F_v deletions and at
// most |F|−|F_v| matches into G_w insertions, so
//
//	δ(F_v, G_w) ≤ δ(F, G) + (|G|−|G_w|)·maxDel + (|F|−|F_v|)·maxIns.
//
// The slack shrinks as subtrees grow (it is zero at the root pair), so a
// value saturated at its own pair cutoff is above the cutoff of every
// pair that may consume it.
func (r *Runner) pairCutoff(v, w int) float64 {
	oc := r.opCostsFor(r.cm)
	return r.tau +
		float64(r.g.Len()-r.g.Size(w))*oc.dmax +
		float64(r.f.Len()-r.f.Size(v))*oc.imax
}

// regionMins returns the price floors of the subtree pair (v, w) under
// the cost orientation cm (one of the runner's two compiled forms): the
// cheapest delete over the first tree's subtree at v and the cheapest
// insert over the second tree's subtree at w when the cost model carries
// subtree floors, the global minima otherwise. A regional floor is never
// below the global one.
func (r *Runner) regionMins(cm *cost.Compiled, v, w int) (dmin, imin float64) {
	oc := r.opCostsFor(cm)
	dmin, imin = oc.dmin, oc.imin
	if cm.DelSub != nil {
		if m := cm.DelSub[v]; m > dmin {
			dmin = m
		}
	}
	if cm.InsSub != nil {
		if m := cm.InsSub[w]; m > imin {
			imin = m
		}
	}
	return dmin, imin
}

// subtreeLower returns a cheap lower bound on δ(F_v, G_w) from the size
// and height offsets of the pair: an edit script needs at least |Δsize|
// deletions (or insertions), and — because a delete or insert changes
// the height of a tree by at most one while a rename leaves it unchanged
// — at least |Δheight| of them as well. Each is priced at the cheapest
// per-node cost of its direction: the deleted nodes all come from F_v and
// the inserted ones all land in G_w, so the floors are the pair's own
// regional minima.
//
// Under non-unit models the bound adds the per-label-pair rename floor: any mapping with m matched pairs pays at least
//
//	(|F_v|−m)·dmin + (|G_w|−m)·imin + m·rf
//
// where rf = max(renF[v], renG[w]) bounds every single rename of the
// pair from below (its source is in F_v and its target in G_w, so both
// sides' floors apply). The expression is linear in m, so its minimum
// over m ∈ [0, min] sits at an endpoint: when rf ≥ dmin+imin matching
// never beats delete+insert and every node is priced; otherwise the
// smaller side matches fully and still pays rf per pair. With rf = 0
// (any shared-label region) this degenerates to the |Δsize| bound.
func (r *Runner) subtreeLower(v, w int) float64 {
	dmin, imin := r.regionMins(r.cm, v, w)
	hf, hg := r.heights()
	lb := 0.0
	if ds := r.f.Size(v) - r.g.Size(w); ds > 0 {
		lb = float64(ds) * dmin
	} else if ds < 0 {
		lb = float64(-ds) * imin
	}
	if dh := int(hf[v]) - int(hg[w]); dh > 0 {
		if b := float64(dh) * dmin; b > lb {
			lb = b
		}
	} else if dh < 0 {
		if b := float64(-dh) * imin; b > lb {
			lb = b
		}
	}
	if !r.cm.IsUnit() {
		if rnF, rnG := r.renFloors(); rnF != nil {
			rf := rnF[v]
			if g := rnG[w]; g > rf {
				rf = g
			}
			if rf > 0 {
				sf, sg := float64(r.f.Size(v)), float64(r.g.Size(w))
				var b float64
				switch {
				case rf >= dmin+imin:
					b = sf*dmin + sg*imin
				case sf >= sg:
					b = (sf-sg)*dmin + sg*rf
				default:
					b = (sg-sf)*imin + sf*rf
				}
				if b > lb {
					lb = b
				}
			}
		}
	}
	return lb
}

// renFloors lazily builds the pair's per-subtree rename floors: renF[v]
// bounds any rename out of F_v from below, renG[w] any rename into G_w.
// Nil under the unit model. The G-side floors come from the transposed
// orientation, whose renames swap arguments.
func (r *Runner) renFloors() ([]float64, []float64) {
	if !r.renReady {
		r.renF = r.cm.RenFloors(r.f)
		if r.renF != nil {
			if r.cmT == nil {
				r.cmT = r.cm.Transpose()
			}
			r.renG = r.cmT.RenFloors(r.g)
		}
		r.renReady = true
	}
	return r.renF, r.renG
}

// spectraHopeless reports whether the quantized depth spectra of the
// pair (v, w) prove δ(F_v, G_w) > tcut, given the band half-widths of the
// pair's regional prices: maxD deletions and maxI insertions are the most
// the cutoff can pay for. In any mapping, a mapped node at depth ≥ t
// below v keeps at least t−d of its t ancestors, whose images are
// distinct ancestors of its own image — so it maps at depth ≥ t−d below
// w, where d is the mapping's deletion count. With n_F(t) nodes at depth
// ≥ t below v and only n_G(t−d) slots at depth ≥ t−d below w, at least
// n_F(t)−n_G(t−d) of them are deleted; if that already exceeds maxD at
// d = maxD (n_G's argument is monotone, so maxD is the most forgiving
// feasible d), every mapping needs more than maxD deletions and its cost
// exceeds the cutoff. The symmetric test bounds insertions. Spectra
// entries are exact suffix counts for every depth below SpectraBuckets
// (see DepthSpectra), so each tested level is sound; deeper levels are
// simply not tested.
func (r *Runner) spectraHopeless(v, w, maxD, maxI int) bool {
	const B = SpectraBuckets
	sf, sg := r.spectra()
	fr := sf[v*B : v*B+B]
	gr := sg[w*B : w*B+B]
	for t := 1; t < B; t++ {
		tg := t - maxD
		if tg < 0 {
			tg = 0
		}
		if int(fr[t])-int(gr[tg]) > maxD {
			return true
		}
		tf := t - maxI
		if tf < 0 {
			tf = 0
		}
		if int(gr[t])-int(fr[tf]) > maxI {
			return true
		}
	}
	return false
}

// spectra lazily builds (into arena scratch) the per-subtree depth
// spectra of the two trees. Only aborting bounded runs read them, and
// building both costs O((|F|+|G|)·SpectraBuckets), far below the DP they
// guard, so nothing caches them per tree.
func (r *Runner) spectra() ([]int32, []int32) {
	if !r.spReady {
		r.spF = growI32(&r.ar.spF, r.f.Len()*SpectraBuckets)
		depthSpectraInto(r.f, r.spF)
		r.spG = growI32(&r.ar.spG, r.g.Len()*SpectraBuckets)
		depthSpectraInto(r.g, r.spG)
		r.spReady = true
	}
	return r.spF, r.spG
}

// heights lazily builds (into arena scratch) the per-subtree height
// arrays of the two trees: h[v] is the edge count of the longest
// root-leaf path of the subtree rooted at v (leaves are 0).
func (r *Runner) heights() ([]int32, []int32) {
	if !r.hReady {
		r.hF = subtreeHeights(r.f, &r.ar.hF)
		r.hG = subtreeHeights(r.g, &r.ar.hG)
		r.hReady = true
	}
	return r.hF, r.hG
}

func subtreeHeights(t *tree.Tree, buf *[]int32) []int32 {
	h := growI32(buf, t.Len())
	for v := 0; v < t.Len(); v++ { // postorder: children precede parents
		best := int32(0)
		for _, c := range t.Children(v) {
			if h[c]+1 > best {
				best = h[c] + 1
			}
		}
		h[v] = best
	}
	return h
}

// bandWidth returns the width of one side of the structural band: the
// largest k ≥ 0 whose k cheapest operations of per-node cost c still fit
// under tcut, i.e. the largest k with float64(k)*c ≤ tcut — evaluated
// in exactly that float arithmetic, so a size offset d is in the band iff
// float64(d)*c ≤ tcut holds, never by a rounded approximation of it. A
// non-positive c can never prove a cell hopeless (the side is unbounded)
// and a negative cutoff admits nothing.
func bandWidth(tcut, c float64) int {
	if math.IsNaN(tcut) {
		return math.MaxInt32 // NaN comparisons never prune; match that
	}
	if tcut < 0 {
		return 0
	}
	if c <= 0 {
		return math.MaxInt32
	}
	q := tcut / c
	if q >= float64(math.MaxInt32) {
		return math.MaxInt32
	}
	k := int(q)
	for k > 0 && float64(k)*c > tcut {
		k--
	}
	for float64(k+1)*c <= tcut {
		k++
	}
	return k
}

// cutPad returns the slack added to cutoff comparisons. Unit costs sum to
// small integers, which float64 represents exactly, so the bounded
// contract is exact and the pad is zero. Arbitrary cost models accumulate
// rounding along DP paths; the pad absorbs it so saturation never hides a
// value the exact run would have computed at or below the cutoff.
func (r *Runner) cutPad(tcut float64) float64 {
	if r.cm.IsUnit() {
		return 0
	}
	return 1e-9 * (1 + math.Abs(tcut))
}

// Dist returns δ(F_v, G_w) after Run.
func (r *Runner) Dist(v, w int) float64 { return r.d[v*r.g.Len()+w] }

// Matrix returns the full |F|×|G| subtree-distance matrix (row-major).
// The slice is owned by the runner.
func (r *Runner) Matrix() []float64 { return r.d }

// Stats returns the instrumentation counters accumulated by Run.
func (r *Runner) Stats() Stats { return r.stats }

// gted is Algorithm 1: look up the strategy's path for the pair, recurse
// into the relevant subtrees of the decomposed tree, then run the
// single-path function matching the path type. In bounded mode each pair
// runs its single-path function under the pair's saturation cutoff, and
// with abortEarly a computed subtree distance above that cutoff ends the
// whole run (the root distance is then provably above tau).
func (r *Runner) gted(v, w int) {
	if r.exceeded {
		return
	}
	idx := v*r.g.Len() + w
	if r.seen[idx] {
		return
	}
	r.seen[idx] = true
	ch := r.strat.Choose(v, w)
	r.stats.SPFCalls++
	r.stats.SPFByChoice[ch]++
	tcut := math.Inf(1)
	if r.bounded {
		tcut = r.pairCutoff(v, w)
		// Keyroot-level band: if the size, height, rename-floor or
		// depth-spectra offset of the pair alone prices δ(F_v, G_w) above
		// the saturation cutoff, the root distance provably exceeds tau —
		// skip the pair's entire DP (and the recursion feeding it) instead
		// of computing cells that would all saturate. Only valid with
		// abortEarly: without it the caller is owed the other pairs'
		// matrix entries.
		if r.abortEarly {
			tp := tcut + r.cutPad(tcut)
			hopeless := r.subtreeLower(v, w) > tp
			if !hopeless {
				dmin, imin := r.regionMins(r.cm, v, w)
				maxD, maxI := bandWidth(tp, dmin), bandWidth(tp, imin)
				if maxD < math.MaxInt32 || maxI < math.MaxInt32 {
					hopeless = r.spectraHopeless(v, w, maxD, maxI)
				}
			}
			if hopeless {
				r.exceeded = true
				r.stats.PrunedKeyroots++
				r.stats.PrunedSubproblems += int64(r.f.Size(v)) * int64(r.g.Size(w))
				return
			}
		}
	}
	if !ch.InG() {
		strategy.ForEachHanging(r.f, v, ch.Type(), func(rt int) { r.gted(rt, w) })
		if r.exceeded {
			return
		}
		r.runSPF(r.f, v, r.g, w, ch.Type(), false, tcut)
	} else {
		strategy.ForEachHanging(r.g, w, ch.Type(), func(rt int) { r.gted(v, rt) })
		if r.exceeded {
			return
		}
		r.runSPF(r.g, w, r.f, v, ch.Type(), true, tcut)
	}
	if r.abortEarly && r.d[idx] > tcut+r.cutPad(tcut) {
		r.exceeded = true
	}
}

// runSPF dispatches to the single-path function for a path of type pt in
// the subtree t1/v1, with t2/v2 the other tree. swap records that t1 is
// the original right-hand tree (the "transposition flag" of Algorithm 1).
// tcut is the pair's saturation cutoff (+Inf outside bounded mode).
func (r *Runner) runSPF(t1 *tree.Tree, v1 int, t2 *tree.Tree, v2 int, pt strategy.PathType, swap bool, tcut float64) {
	cm := r.cm
	if swap {
		if r.cmT == nil {
			r.cmT = r.cm.Transpose()
		}
		cm = r.cmT
	}
	dv := dview{d: r.d, ng: r.g.Len(), swap: swap}
	switch pt {
	case strategy.Left:
		r.spfLR(leftView(t1, nil), v1, leftView(t2, nil), v2, cm, dv, tcut)
	case strategy.Right:
		r.spfLR(rightView(t1, r.mirrorLeafmost(t1)), v1, rightView(t2, r.mirrorLeafmost(t2)), v2, cm, dv, tcut)
	default:
		r.spfI(t1, v1, t2, v2, pt, cm, dv, tcut)
	}
}

// mirrorLeafmost lazily builds (and caches) the mirror-coordinate
// leafmost array for one of the runner's two trees.
func (r *Runner) mirrorLeafmost(t *tree.Tree) []int32 {
	var cache *[]int32
	switch t {
	case r.f:
		cache = &r.lfmF
	case r.g:
		cache = &r.lfmG
	default:
		panic("gted: mirrorLeafmost on foreign tree")
	}
	if *cache == nil {
		*cache = MirrorLeafmost(t)
	}
	return *cache
}

// MirrorLeafmost computes the mirror-coordinate leafmost array of t: for
// a node with mirror postorder id c, the mirror postorder id of its
// rightmost leaf descendant. It is the per-tree input of ΔR; batch
// preparation computes it once per tree and injects it with
// SetMirrorLeafmost.
func MirrorLeafmost(t *tree.Tree) []int32 {
	n := t.Len()
	a := make([]int32, n)
	for c := 0; c < n; c++ {
		a[c] = int32(t.MPost(t.RightmostLeaf(t.ByMPost(c))))
	}
	return a
}

// dview provides orientation-aware access to the shared distance matrix:
// coordinates are always (node of t1, node of t2) and the view maps them
// to the canonical (F, G) layout.
type dview struct {
	d    []float64
	ng   int
	swap bool
}

func (dv dview) get(x, y int) float64 {
	if dv.swap {
		x, y = y, x
	}
	return dv.d[x*dv.ng+y]
}

func (dv dview) set(x, y int, val float64) {
	if dv.swap {
		x, y = y, x
	}
	dv.d[x*dv.ng+y] = val
}
