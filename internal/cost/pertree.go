package cost

import (
	"sync/atomic"

	"repro/internal/tree"
)

// This file implements the per-tree half of cost compilation: the
// per-node delete/insert cost vectors are per-tree quantities, so the
// batch engine compiles each tree once and need not recompute them per
// pair, and Compile builds both halves of one pair on a fresh table.
// Trees on one label table (tree.LabelTable) agree on label ids, so two
// PerTree halves compiled against the same table can be assembled into a
// Compiled pair form without touching the labels again.

// PerTree is the per-tree half of a compiled cost model: the tree's
// label ids on a shared table plus the delete and insert cost of every
// node. Two halves compiled against the same table combine into a pair
// form with PairPrepared. Its slices are read-only: IDs is the tree's
// own id slice, and under the unit model Del and Ins are windows of one
// vector of 1s that every unit-model PerTree shares.
type PerTree struct {
	IDs []int32   // label id per node (postorder) on labels
	Del []float64 // cost of deleting each node
	Ins []float64 // cost of inserting each node

	labels *tree.LabelTable
	unit   bool
}

// ones backs the Del and Ins vectors of every unit-model PerTree. It only
// grows, by replacement: a vector once handed out is never written again.
var ones atomic.Pointer[[]float64]

// unitCosts returns n unit costs from the shared vector, its capacity
// capped at n so that an append copies instead of writing into the
// vector other trees read.
func unitCosts(n int) []float64 {
	for {
		cur := ones.Load()
		have := 0
		if cur != nil {
			have = len(*cur)
		}
		if have >= n {
			return (*cur)[:n:n]
		}
		v := make([]float64, max(n, 2*have, 1024))
		for i := range v {
			v[i] = 1
		}
		// A concurrent grower may have won; retry against its vector.
		if ones.CompareAndSwap(cur, &v) {
			return v[:n:n]
		}
	}
}

// CompileTree precomputes the per-node delete and insert costs of t
// under model m, with label ids on table tab: t's own ids when t is on
// tab, otherwise its labels interned into tab.
func CompileTree(m Model, t *tree.Tree, tab *tree.LabelTable) *PerTree {
	t = t.Relabel(tab)
	p := &PerTree{IDs: t.IDs(), labels: tab}
	n := len(p.IDs)
	if _, p.unit = m.(Unit); p.unit {
		p.Del = unitCosts(n)
		p.Ins = p.Del
		return p
	}
	p.Del = make([]float64, n)
	p.Ins = make([]float64, n)
	for v := range n {
		l := t.Label(v)
		p.Del[v] = m.Delete(l)
		p.Ins[v] = m.Insert(l)
	}
	return p
}

// RenameMemo is a reusable rename-cost cache for non-unit models. Entries
// are keyed by label-id pairs, which are stable across every tree
// compiled against one label table, so a memo owned by a worker stays
// valid for every pair that worker serves — the rename maps stop being a
// per-pair allocation and reach a steady state once the label vocabulary
// has been seen. The two orientations of a pair cache separately (a
// transposed rename swaps its arguments, so memo[x][y] means different
// costs in the two directions).
//
// A RenameMemo is bound to one (label table, Model) combination; Reset
// it before reusing it with another.
type RenameMemo struct {
	fwd, rev map[[2]int32]float64
}

// Reset empties the memo so it can serve a different table or model.
func (rm *RenameMemo) Reset() {
	clear(rm.fwd)
	clear(rm.rev)
}

// PairPrepared assembles the Compiled form for the pair (f, g) from two
// per-tree halves compiled against one label table. Both orientations
// are built up front by slice sharing — no cost vector is copied — so
// GTED's right-hand-tree decompositions (which need the transposed
// direction) stay allocation-free. Non-unit models get fresh rename memos; batch
// workloads should use PairPreparedMemo to reuse them across pairs.
func PairPrepared(m Model, f, g *PerTree) *Compiled {
	return PairPreparedMemo(m, f, g, nil)
}

// PairPreparedMemo is PairPrepared drawing the rename memos of a non-unit
// model from rm, so a worker that serves many pairs through one memo
// caches rename costs across its whole stream instead of per pair. A nil
// rm allocates fresh memos (PairPrepared's behavior); under the unit
// model rm is not touched.
func PairPreparedMemo(m Model, f, g *PerTree, rm *RenameMemo) *Compiled {
	// A snapshot taken now covers every id of both trees: they were
	// compiled, and so interned, before.
	labels := f.labels.Snapshot()
	c := &Compiled{
		Del:    f.Del,
		Ins:    g.Ins,
		FID:    f.IDs,
		GID:    g.IDs,
		labels: labels,
		unit:   f.unit,
		model:  m,
	}
	t := &Compiled{
		Del:    g.Ins,
		Ins:    f.Del,
		FID:    g.IDs,
		GID:    f.IDs,
		labels: labels,
		unit:   f.unit,
		model:  transposed{m},
	}
	if !c.unit {
		if rm == nil {
			rm = &RenameMemo{}
		}
		if rm.fwd == nil {
			rm.fwd = make(map[[2]int32]float64)
			rm.rev = make(map[[2]int32]float64)
		}
		c.memo = rm.fwd
		t.memo = rm.rev
	}
	c.trans, t.trans = t, c
	return c
}
