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
	"sync/atomic"

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
	// exceeds the cutoff tau, skipped as whole loop ranges of the
	// structural band instead of computed. A run refused at its root
	// (PrunedKeyroots) adds |F|·|G|, a lower bound on the relevant cells
	// its DP would have visited. Always zero for exact runs.
	PrunedSubproblems int64 `json:"pruned_subproblems"`
	// BandSkippedCells counts the cells skipped as whole loop ranges by
	// the structural band (never individually tested). Every in-loop
	// pruned cell is a band skip, so BandSkippedCells plus |F|·|G| per
	// root refusal equals PrunedSubproblems.
	BandSkippedCells int64 `json:"band_skipped_cells"`
	// PrunedKeyroots counts RunBounded runs refused at their root pair
	// before any DP (0 or 1 per run): runs whose size, height or
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
//
// A run stops early once its stop flag (NewInArena) is set: GTED reads
// the flag, one atomic load, before each single-path call, ΔL/ΔR keyroot
// and ΔI chain state, never per cell. A stopped run's distances and
// counters mean nothing, and its arena stays reusable.
type Runner struct {
	f, g  *tree.Tree
	cm    *cost.Compiled // oriented (f, g); cm.Transpose() is (g, f)
	strat strategy.Strategy
	stop  *atomic.Bool

	d    []float64 // |F|×|G| subtree-pair distances, row-major
	seen []bool    // GTED pair memo

	stats Counters

	// ar holds all reusable scratch (forest-distance rows, the ΔI row
	// pool, chain and decomposition buffers). Stand-alone runners own a
	// private arena; batch workers share one arena across many runners.
	ar       *Arena
	liveRows int

	// Bounded mode (SetCutoff): the structural band of the (F, G)
	// orientation, maxD deletions and maxI insertions wide (see band).
	bounded    bool
	maxD, maxI int
}

// minOpCosts returns the cheapest per-node delete and insert costs of
// the orientation cm: the price of one step away from the band diagonal.
func minOpCosts(cm *cost.Compiled) (dmin, imin float64) {
	if cm.IsUnit() {
		return 1, 1
	}
	dmin, imin = math.Inf(1), math.Inf(1)
	for _, c := range cm.Del {
		if c < dmin {
			dmin = c
		}
	}
	for _, c := range cm.Ins {
		if c < imin {
			imin = c
		}
	}
	return dmin, imin
}

// New prepares a GTED runner for the pair (f, g) under cost model m and
// strategy s.
func New(f, g *tree.Tree, m cost.Model, s strategy.Strategy) *Runner {
	return NewCompiled(f, g, cost.Compile(m, f, g), s)
}

// NewCompiled is New with precompiled costs (for callers that reuse the
// compilation across runs).
func NewCompiled(f, g *tree.Tree, cm *cost.Compiled, s strategy.Strategy) *Runner {
	return NewInArena(f, g, cm, s, NewArena(), new(atomic.Bool))
}

// NewInArena is NewCompiled with caller-owned scratch memory and a stop
// flag: all DP tables are carved out of ar, which grows to the largest
// pair it has served and is reused without further allocation, and the
// run stops early once stop is set (see Runner). Creating a new runner
// on an arena invalidates the distance matrix of every earlier runner
// backed by the same arena.
func NewInArena(f, g *tree.Tree, cm *cost.Compiled, s strategy.Strategy, ar *Arena, stop *atomic.Bool) *Runner {
	n := f.Len() * g.Len()
	r := &Runner{
		f:     f,
		g:     g,
		cm:    cm,
		strat: s,
		stop:  stop,
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

// SetCutoff puts the runner in bounded mode: every subproblem
// saturates at tau. DP cells whose forest sizes alone prove their value
// greater than tau are skipped instead of computed. Every DP transition
// adds a nonnegative cost, so each cell on the derivation of a value at
// most tau is itself at most tau and never skipped: after Run every
// computed value at most tau is bit-identical to the exact run's, and
// the distance matrix holds, for each subtree pair, either the exact
// distance or +Inf/an overestimate above tau. Nothing is abandoned: the
// run computes every subtree pair the strategy visits.
//
// The skipped cells form a structural band: for a fixed F-side forest
// size the admissible G-side sizes form one contiguous interval
// [fSz−maxD, fSz+maxI] (maxD/maxI are the most cheapest-cost
// deletions/insertions tau can pay for, bandWidth), so the DP loops
// iterate only that interval and account the rest as whole skipped
// spans. Any branch of an in-band cell that would read an out-of-band
// cell is priced at +Inf instead — sound, since the out-of-band forest
// pair needs more than maxD deletions or maxI insertions, so its true
// value already exceeds tau and the branch using it cannot be the
// minimum of any value at most tau. Skipped cells that publish into the
// subtree-distance matrix (tree×tree cells) are saturated there to +Inf.
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
// A +Inf tau disables bounded mode.
func (r *Runner) SetCutoff(tau float64) {
	r.bounded = false
	if math.IsInf(tau, 1) {
		return
	}
	dmin, imin := minOpCosts(r.cm)
	if dmin <= 0 && imin <= 0 {
		return // no size argument can price a cell above tau
	}
	cut := tau + cutPad(r.cm, tau)
	// Widths beyond any possible size difference act identically;
	// capping keeps the index arithmetic comfortably in range.
	n := r.f.Len() + r.g.Len()
	r.maxD, r.maxI = min(bandWidth(cut, dmin), n), min(bandWidth(cut, imin), n)
	r.bounded = true
}

// band returns the structural band of a single-path call, in the
// orientation of its decomposed tree T1 (swap: T1 is G): for prefix pair
// (di, dj) the admissible dj of a row form the contiguous range
// [di−maxD, di+maxI]. ok is false outside bounded mode. A swapped call
// runs on the transposed costs, whose deletions are G's insertions, so
// its band is the (F, G) band mirrored.
func (r *Runner) band(swap bool) (maxD, maxI int, ok bool) {
	if swap {
		return r.maxI, r.maxD, r.bounded
	}
	return r.maxD, r.maxI, r.bounded
}

// RunBounded is Run with cutoff tau: it returns (d, true) iff the exact
// distance d is at most tau, and (+Inf, false) when the distance
// provably exceeds tau. A pair the root check refuses (Refuse) runs no
// DP at all; any other pair runs once, saturating at tau (SetCutoff).
func (r *Runner) RunBounded(tau float64) (float64, bool) {
	if math.IsNaN(tau) {
		// No distance is ≤ NaN; don't let NaN comparisons (all false)
		// masquerade as an unbounded run.
		return math.Inf(1), false
	}
	if st, refused := Refuse(r.f, r.g, r.cm, tau); refused {
		r.stats = st
		return math.Inf(1), false
	}
	r.SetCutoff(tau)
	if d := r.Run(); d <= tau {
		return d, true
	}
	return math.Inf(1), false
}

// Refuse is the root check of RunBounded: it reports whether the size
// and height offsets of F and G, and under non-unit models the rename
// floor, price the pair (F, G) above the finite cutoff tau under the
// compiled costs cm (rootLower), and returns the counters of the refused
// run: PrunedKeyroots 1 and PrunedSubproblems |F|·|G|. RunBounded makes
// this check before any DP. A caller that has to compute a strategy
// before it can build a runner makes it before that, so a refused pair
// pays for no strategy DP either.
func Refuse(f, g *tree.Tree, cm *cost.Compiled, tau float64) (Counters, bool) {
	if !math.IsInf(tau, 1) && rootLower(f, g, cm) > tau+cutPad(cm, tau) {
		return Counters{PrunedKeyroots: 1, PrunedSubproblems: int64(f.Len()) * int64(g.Len())}, true
	}
	return Counters{}, false
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
// this degenerates to the size and height bound.
func rootLower(f, g *tree.Tree, cm *cost.Compiled) float64 {
	dmin, imin := minOpCosts(cm)
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
// under cut, i.e. the largest k with float64(k)*c ≤ cut — evaluated in
// exactly that float arithmetic, so a size offset d is in the band iff
// float64(d)*c ≤ cut holds, never by a rounded approximation of it. A
// non-positive c can never prove a cell hopeless (the side is unbounded)
// and a negative cutoff admits nothing.
func bandWidth(cut, c float64) int {
	if math.IsNaN(cut) {
		return math.MaxInt32 // NaN comparisons never prune; match that
	}
	if cut < 0 {
		return 0
	}
	if c <= 0 {
		return math.MaxInt32
	}
	q := cut / c
	if q >= float64(math.MaxInt32) {
		return math.MaxInt32
	}
	k := int(q)
	for k > 0 && float64(k)*c > cut {
		k--
	}
	for float64(k+1)*c <= cut {
		k++
	}
	return k
}

// cutPad returns the slack added to cutoff comparisons. Unit costs sum to
// small integers, which float64 represents exactly, so the bounded
// contract is exact and the pad is zero. Arbitrary cost models accumulate
// rounding along DP paths; the pad absorbs it so saturation never hides a
// value the exact run would have computed at or below the cutoff.
func cutPad(cm *cost.Compiled, tau float64) float64 {
	if cm.IsUnit() {
		return 0
	}
	return 1e-9 * (1 + math.Abs(tau))
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
// single-path function matching the path type.
func (r *Runner) gted(v, w int) {
	idx := v*r.g.Len() + w
	if r.seen[idx] || r.stop.Load() {
		return
	}
	r.seen[idx] = true
	ch := r.strat.Choose(v, w)
	r.stats.SPFCalls++
	if !ch.InG() {
		strategy.ForEachHanging(r.f, v, ch.Type(), func(rt int) { r.gted(rt, w) })
		r.runSPF(r.f, v, r.g, w, ch.Type(), false)
	} else {
		strategy.ForEachHanging(r.g, w, ch.Type(), func(rt int) { r.gted(v, rt) })
		r.runSPF(r.g, w, r.f, v, ch.Type(), true)
	}
}

// runSPF dispatches to the single-path function for a path of type pt in
// the subtree t1/v1, with t2/v2 the other tree. swap records that t1 is
// the original right-hand tree (the "transposition flag" of Algorithm 1).
func (r *Runner) runSPF(t1 *tree.Tree, v1 int, t2 *tree.Tree, v2 int, pt strategy.PathType, swap bool) {
	cm := r.cm
	if swap {
		cm = r.cm.Transpose()
	}
	dv := dview{d: r.d, ng: r.g.Len(), swap: swap}
	switch pt {
	case strategy.Left:
		r.spfLR(zsview{t: t1}, v1, zsview{t: t2}, v2, cm, dv)
	case strategy.Right:
		r.spfLR(zsview{t: t1, mirror: true}, v1, zsview{t: t2, mirror: true}, v2, cm, dv)
	default:
		r.spfI(t1, v1, t2, v2, pt, cm, dv)
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
