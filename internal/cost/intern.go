package cost

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tree"
)

// This file implements the per-tree half of cost compilation, used by the
// batch engine: when many pairs over the same trees are computed, label
// interning and the per-node delete/insert cost vectors are per-tree
// quantities and need not be recomputed per pair. An Interner assigns
// label ids that are stable across every tree it has seen, so two PerTree
// halves compiled against the same interner can be assembled into a
// Compiled pair form without touching the labels again.

// Interner assigns stable integer ids to labels across many trees. It is
// safe for concurrent use: interning only happens on preparation paths
// (never on the distance hot path), and a corpus-attached interner is
// shared by every engine the corpus creates, so the serialization lives
// with the interner rather than with any one engine.
type Interner struct {
	mu     sync.Mutex
	ids    map[string]int
	labels []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int)}
}

// NewInternerFromTable returns an interner pre-seeded so that label
// Table()[i] has id i — the inverse of Table, used when a persisted label
// table is reloaded and stored per-node ids must stay valid. Duplicate
// labels in the table are an error (two ids for one label would make
// interning ambiguous).
func NewInternerFromTable(table []string) (*Interner, error) {
	in := &Interner{
		ids:    make(map[string]int, len(table)),
		labels: make([]string, len(table)),
	}
	copy(in.labels, table)
	for i, l := range table {
		if prev, ok := in.ids[l]; ok {
			return nil, fmt.Errorf("cost: label table entries %d and %d are both %q", prev, i, l)
		}
		in.ids[l] = i
	}
	return in, nil
}

// Intern returns the id of label l, assigning the next free id on first
// sight.
func (in *Interner) Intern(l string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.intern(l)
}

func (in *Interner) intern(l string) int {
	if id, ok := in.ids[l]; ok {
		return id
	}
	id := len(in.labels)
	in.ids[l] = id
	in.labels = append(in.labels, l)
	return id
}

// Table returns the id->label table interned so far. The result is a
// stable snapshot: ids only grow, so the table of a later snapshot
// extends an earlier one element for element.
func (in *Interner) Table() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.snapshot()
}

// snapshot returns the current id->label view with capacity clipped to
// its length, so later appends never write into a handed-out slice.
// Callers must hold in.mu.
func (in *Interner) snapshot() []string {
	return in.labels[:len(in.labels):len(in.labels)]
}

// Len returns the number of distinct labels interned so far.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.labels)
}

// PerTree is the per-tree half of a compiled cost model: interned label
// ids plus the delete and insert cost of every node. Two halves compiled
// against the same Interner combine into a pair form with PairPrepared.
// Its slices are read-only: under the unit model Del and Ins are windows
// of one vector of 1s that every unit-model PerTree shares.
type PerTree struct {
	IDs []int32   // interned label id per node (postorder)
	Del []float64 // cost of deleting each node
	Ins []float64 // cost of inserting each node

	// SubDelMin[v]/SubInsMin[v] are the cheapest Del/Ins over the subtree
	// rooted at v — the per-region price floors of bounded GTED's sharp
	// band pricing. Nil under the unit model (all floors are the global 1).
	SubDelMin []float64
	SubInsMin []float64

	// labels is a snapshot of the interner's id->label table taken at
	// compile time. It covers every id in IDs (ids grow monotonically, so
	// the later of two snapshots covers both trees of a pair).
	labels []string
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

// CompileTree interns the labels of t and precomputes its per-node
// delete and insert costs under model m. The interner is locked once for
// the whole tree.
func CompileTree(m Model, t *tree.Tree, in *Interner) *PerTree {
	n := t.Len()
	p := &PerTree{IDs: make([]int32, n)}
	_, p.unit = m.(Unit)
	in.mu.Lock()
	for v := 0; v < n; v++ {
		p.IDs[v] = int32(in.intern(t.Label(v)))
	}
	p.labels = in.snapshot()
	in.mu.Unlock()
	p.price(m, t)
	return p
}

// CompileTreeFromIDs builds the per-tree compiled form from label ids
// that were already interned against in — the hydration path of a
// persisted corpus, which stores per-tree id arrays precisely so that
// reloading skips the per-node map lookups of CompileTree. Every id must
// be a valid id of in. The PerTree keeps ids as its IDs, so the caller
// must not modify them afterwards.
func CompileTreeFromIDs(m Model, t *tree.Tree, ids []int32, in *Interner) (*PerTree, error) {
	n := t.Len()
	if len(ids) != n {
		return nil, fmt.Errorf("cost: %d label ids for a %d-node tree", len(ids), n)
	}
	labels := in.Table()
	for v, id := range ids {
		if id < 0 || int(id) >= len(labels) {
			return nil, fmt.Errorf("cost: node %d has label id %d, interner holds %d labels", v, id, len(labels))
		}
	}
	p := &PerTree{IDs: ids, labels: labels}
	_, p.unit = m.(Unit)
	p.price(m, t)
	return p, nil
}

// price fills the delete and insert costs of p's nodes under m: the
// shared unit vector under the unit model; otherwise one model call per
// node and operation on the node's label, plus the per-subtree floors.
func (p *PerTree) price(m Model, t *tree.Tree) {
	n := len(p.IDs)
	if p.unit {
		p.Del = unitCosts(n)
		p.Ins = p.Del
		return
	}
	p.Del = make([]float64, n)
	p.Ins = make([]float64, n)
	for v, id := range p.IDs {
		l := p.labels[id]
		p.Del[v] = m.Delete(l)
		p.Ins[v] = m.Insert(l)
	}
	p.SubDelMin = subtreeMin(t, p.Del)
	p.SubInsMin = subtreeMin(t, p.Ins)
}

// RenameMemo is a reusable rename-cost cache for non-unit models. Entries
// are keyed by interned label-id pairs, which are stable across every tree
// compiled against one Interner, so a memo owned by a worker stays valid
// for every pair that worker serves — the rename maps stop being a
// per-pair allocation and reach a steady state once the label vocabulary
// has been seen. The two orientations of a pair cache separately (a
// transposed rename swaps its arguments, so memo[x][y] means different
// costs in the two directions).
//
// A RenameMemo is bound to one (Interner, Model) combination; Reset it
// before reusing it with another.
type RenameMemo struct {
	fwd, rev map[[2]int32]float64
}

// Reset empties the memo so it can serve a different interner or model.
func (rm *RenameMemo) Reset() {
	clear(rm.fwd)
	clear(rm.rev)
}

// PairPrepared assembles the Compiled form for the pair (f, g) from two
// per-tree halves that share an interner. Both orientations are built up
// front by slice sharing — no cost vector is copied — so GTED's
// right-hand-tree decompositions (which need the transposed direction)
// stay allocation-free. Non-unit models get fresh rename memos; batch
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
	labels := f.labels
	if len(g.labels) > len(labels) {
		labels = g.labels
	}
	c := &Compiled{
		Del:    f.Del,
		Ins:    g.Ins,
		FID:    f.IDs,
		GID:    g.IDs,
		DelSub: f.SubDelMin,
		InsSub: g.SubInsMin,
		labels: labels,
		unit:   f.unit,
		model:  m,
	}
	t := &Compiled{
		Del:    g.Ins,
		Ins:    f.Del,
		FID:    g.IDs,
		GID:    f.IDs,
		DelSub: g.SubInsMin,
		InsSub: f.SubDelMin,
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
