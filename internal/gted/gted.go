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

// Counters is the kernel's instrumentation, declared once for every
// layer: a Runner accumulates it over one run, and the stats of the
// root package, the batch engine and the server embed this struct
// instead of copying its fields, summing runs with Merge. The JSON
// names are the wire keys of the server's stats blocks and of the
// cluster's done frames.
type Counters struct {
	// Subproblems is the number of relevant subproblems evaluated: the
	// count of DP cells with two non-empty forests across all
	// single-path function invocations. Bounded runs (SetCutoff) count
	// only the cells they actually compute.
	Subproblems int64 `json:"subproblems"`
	// PrunedSubproblems is the number of relevant subproblems a bounded
	// run skipped: DP cells whose forest sizes alone prove the cell value
	// exceeds the pair cutoff, skipped as whole loop ranges of the
	// structural band instead of computed. A run refused at its root
	// (PrunedKeyroots) adds |F|·|G|, a lower bound on the relevant cells
	// its DP would have visited. Always zero for exact runs.
	PrunedSubproblems int64 `json:"pruned_subproblems"`
	// BandSkippedCells counts the cells skipped as whole loop ranges by
	// the structural band (never individually tested). Every in-loop
	// pruned cell is a band skip, so BandSkippedCells plus |F|·|G| per
	// root refusal equals PrunedSubproblems.
	BandSkippedCells int64 `json:"band_skipped_cells"`
	// PrunedKeyroots counts aborting bounded runs refused at their root
	// pair before any DP (0 or 1 per run): runs whose size, height or
	// rename-floor offset alone prices the pair above tau (Refuse).
	PrunedKeyroots int64 `json:"pruned_keyroots"`
	// CompressedRows counts forest-distance DP rows materialized in
	// band-compressed form: only the ≤ maxD+maxI+1 admissible cells of
	// each row are stored, offset-indexed by the band diagonal. Zero for
	// exact runs and when no band is narrower than its row.
	CompressedRows int64 `json:"compressed_rows"`
	// RowCells counts the DP row cells materialized across all
	// single-path-function row storage: a dense ΔL/ΔR keyroot contributes
	// rows×(s2k+1), a band-compressed one rows×(maxD+maxI+1), and every
	// ΔI chain-state row its full decomposition-row length. Multiplied by
	// 8 it is the bytes of row storage streamed per computation.
	RowCells int64 `json:"row_cells"`
	// SPFCalls counts single-path function invocations (one per subtree
	// pair the strategy decomposes).
	SPFCalls int64 `json:"spf_calls"`
	// MaxLiveRows is the peak number of simultaneously retained ΔI rows;
	// it measures the working memory of the heavy-path DP, whose rows are
	// released by reference count once no later chain state reads them.
	MaxLiveRows int `json:"max_live_rows"`
}

// Merge folds o into c: every counter sums, except MaxLiveRows, which
// takes the maximum (the peak of any single run).
func (c *Counters) Merge(o Counters) {
	c.Subproblems += o.Subproblems
	c.PrunedSubproblems += o.PrunedSubproblems
	c.BandSkippedCells += o.BandSkippedCells
	c.PrunedKeyroots += o.PrunedKeyroots
	c.CompressedRows += o.CompressedRows
	c.RowCells += o.RowCells
	c.SPFCalls += o.SPFCalls
	c.MaxLiveRows = max(c.MaxLiveRows, o.MaxLiveRows)
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

	stats Counters

	// ar holds all reusable scratch (forest-distance rows, the ΔI row
	// pool, chain and decomposition buffers). Stand-alone runners own a
	// private arena; batch workers share one arena across many runners.
	ar       *Arena
	liveRows int

	// Bounded mode (SetCutoff): tau is the caller's cutoff, abortEarly
	// enables the global early exit, exceeded records that the run proved
	// the root distance greater than tau. cb/cbT cache the per-node cost
	// extrema of the two cost orientations.
	tau        float64
	bounded    bool
	abortEarly bool
	exceeded   bool
	cb, cbT    opCosts
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
// With abortEarly set the run additionally stops as soon as any subtree
// pair proves the root distance greater than tau (RunBounded then
// returns +Inf, false); the matrix is partial and only that verdict is
// usable. A +Inf tau disables bounded mode.
func (r *Runner) SetCutoff(tau float64, abortEarly bool) {
	r.tau = tau
	r.bounded = !math.IsInf(tau, 1)
	r.abortEarly = abortEarly && r.bounded
}

// RunBounded is Run with cutoff tau: it returns (d, true) iff the exact
// distance d is at most tau, and (+Inf, false) — typically after
// abandoning most of the DP — when the distance provably exceeds tau.
// A pair the root check refuses (Refuse) runs no DP at all.
func (r *Runner) RunBounded(tau float64) (float64, bool) {
	if math.IsNaN(tau) {
		// No distance is ≤ NaN; don't let NaN comparisons (all false)
		// masquerade as an unbounded run.
		r.exceeded = true
		return math.Inf(1), false
	}
	r.SetCutoff(tau, true)
	if st, refused := refuse(r.f, r.g, r.cm, r.opCostsFor(r.cm), tau); refused {
		r.exceeded, r.stats = true, st
		return math.Inf(1), false
	}
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

// Refuse is the root check of an aborting bounded run: it reports
// whether the size and height offsets of F and G, and under non-unit
// models the rename floor, price the pair (F, G) above the finite cutoff
// tau under the compiled costs cm (rootLower), and returns the counters
// of the refused run: PrunedKeyroots 1 and PrunedSubproblems |F|·|G|.
// RunBounded makes this check before any DP. A caller that has to
// compute a strategy before it can build a runner makes it before that,
// so a refused pair pays for no strategy DP either.
func Refuse(f, g *tree.Tree, cm *cost.Compiled, tau float64) (Counters, bool) {
	oc := scanOpCosts(cm)
	return refuse(f, g, cm, &oc, tau)
}

func refuse(f, g *tree.Tree, cm *cost.Compiled, oc *opCosts, tau float64) (Counters, bool) {
	if !math.IsInf(tau, 1) && rootLower(f, g, cm, oc) > tau+cutPad(cm, tau) {
		return Counters{PrunedKeyroots: 1, PrunedSubproblems: int64(f.Len()) * int64(g.Len())}, true
	}
	return Counters{}, false
}

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

// rootLower returns a lower bound on δ(F, G) from the size and height
// offsets of the two trees: an edit script needs at least |Δsize|
// deletions (or insertions), and — because a delete or insert changes
// the height of a tree by at most one while a rename leaves it unchanged
// — at least |Δheight| of them as well. Each is priced at the cheapest
// per-node cost of its direction.
//
// Under non-unit models the bound adds the rename floor rf, the cheapest
// rename from any F label to any G label (cost.Compiled.MinRename): any
// mapping with m matched pairs pays at least
//
//	(|F|−m)·dmin + (|G|−m)·imin + m·rf.
//
// The expression is linear in m, so its minimum over m ∈ [0, min] sits
// at an endpoint: when rf ≥ dmin+imin matching never beats delete+insert
// and every node is priced; otherwise the smaller tree matches fully and
// still pays rf per pair. With rf = 0 (as when the trees share a label)
// this degenerates to the size and height bound. oc holds the extrema of
// cm's costs.
func rootLower(f, g *tree.Tree, cm *cost.Compiled, oc *opCosts) float64 {
	dmin, imin := oc.dmin, oc.imin
	sf, sg := f.Len(), g.Len()
	lb := 0.0
	if ds := sf - sg; ds > 0 {
		lb = float64(ds) * dmin
	} else if ds < 0 {
		lb = float64(-ds) * imin
	}
	if dh := f.Height() - g.Height(); dh > 0 {
		lb = max(lb, float64(dh)*dmin)
	} else if dh < 0 {
		lb = max(lb, float64(-dh)*imin)
	}
	if cm.IsUnit() {
		return lb
	}
	rf := cm.MinRename()
	if rf <= 0 {
		return lb
	}
	fs, gs := float64(sf), float64(sg)
	switch {
	case rf >= dmin+imin:
		return max(lb, fs*dmin+gs*imin)
	case fs >= gs:
		return max(lb, (fs-gs)*dmin+gs*rf)
	default:
		return max(lb, (gs-fs)*imin+fs*rf)
	}
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
func cutPad(cm *cost.Compiled, tcut float64) float64 {
	if cm.IsUnit() {
		return 0
	}
	return 1e-9 * (1 + math.Abs(tcut))
}

// Dist returns δ(F_v, G_w) after Run.
func (r *Runner) Dist(v, w int) float64 { return r.d[v*r.g.Len()+w] }

// Matrix returns the full |F|×|G| subtree-distance matrix (row-major).
// The slice is owned by the runner.
func (r *Runner) Matrix() []float64 { return r.d }

// Stats returns the counters accumulated by Run.
func (r *Runner) Stats() Counters { return r.stats }

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
	tcut := math.Inf(1)
	if r.bounded {
		tcut = r.pairCutoff(v, w)
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
	if r.abortEarly && r.d[idx] > tcut+cutPad(r.cm, tcut) {
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
		r.spfLR(zsview{t: t1}, v1, zsview{t: t2}, v2, cm, dv, tcut)
	case strategy.Right:
		r.spfLR(zsview{t: t1, mirror: true}, v1, zsview{t: t2, mirror: true}, v2, cm, dv, tcut)
	default:
		r.spfI(t1, v1, t2, v2, pt, cm, dv, tcut)
	}
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
