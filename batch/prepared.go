package batch

import (
	"sync"
	"sync/atomic"

	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/tree"
)

// PreparedTree is a tree with the per-tree inputs of the distance
// machinery cached: per-node delete/insert costs and the lower-bound
// profile, both over the label ids of the tree on the engine's label
// table. Preparing costs O(n log n) time and O(n) space and pays for
// itself as soon as a tree participates in more than one comparison. The
// decomposition cardinalities of the strategy computation (Section 5)
// are not among the inputs: the strategy scratch derives both trees' in
// O(|F|+|G|) per pair, beside its own O(|F|·|G|) DP.
//
// PreparedTrees are immutable and safe to share across goroutines. They
// are bound to the preparing engine, because costs are priced under its
// model; passing one to another engine panics, naming both engines.
// Engines that share a label table (WithLabelTable) agree on label ids,
// so a tree already on the table — every tree a corpus stores is on the
// corpus's — prepares for any of them without interning a label.
type PreparedTree struct {
	eng   *Engine
	t     *tree.Tree
	costs *cost.PerTree
	prof  *bounds.Profile
}

// Prepare caches the per-tree inputs of t for this engine: the tree on
// the engine's label table (t itself when it is on it already, otherwise
// a copy of its shape with the labels interned), its per-node costs
// under the engine's model, and its bound profile. The three share the
// tree's one slice of label ids.
//
// Labels the table has not seen are interned for good, so preparing
// ad-hoc trees, such as queries arriving over the wire, grows the table
// by the union of their distinct labels; servers cap it.
func (e *Engine) Prepare(t *tree.Tree) *PreparedTree {
	t = t.Relabel(e.labels)
	return &PreparedTree{
		eng:   e,
		t:     t,
		costs: cost.CompileTree(e.model, t, e.labels),
		prof:  bounds.NewProfile(t),
	}
}

// PrepareAll prepares every tree of a collection, out[i] from ts[i], on
// the engine's workers (WithWorkers): like the pairs of a join, each
// worker takes the next tree off a shared counter. It holds no lock of
// its own (interning a label the table lacks takes the table's mutex)
// and returns once every worker has exited.
func (e *Engine) PrepareAll(ts []*tree.Tree) []*PreparedTree {
	out := make([]*PreparedTree, len(ts))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for range min(e.workers, len(ts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)); i < len(ts); i = int(next.Add(1)) {
				out[i] = e.Prepare(ts[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Tree returns the prepared tree, on the engine's label table.
func (p *PreparedTree) Tree() *tree.Tree { return p.t }

// Len returns the number of nodes of the underlying tree.
func (p *PreparedTree) Len() int { return p.t.Len() }
