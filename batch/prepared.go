package batch

import (
	"fmt"
	"sync"

	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/tree"
)

// PreparedTree is a tree with the per-tree inputs of the distance
// machinery cached: the mirror-leafmost array consumed by ΔR, interned
// labels with per-node delete/insert costs, and the lower-bound profile.
// Preparing costs O(n) (O(n) space) and pays for itself as soon as a
// tree participates in more than one comparison. The decomposition
// cardinalities of the strategy computation (Section 5) are not among
// them: the strategy scratch derives both trees' in O(|F|+|G|) per pair,
// beside its own O(|F|·|G|) DP.
//
// PreparedTrees are immutable and safe to share across goroutines. They
// are bound to the preparing engine, because label ids come from that
// engine's interner; passing one to another engine panics, naming both
// engines. There are two ways to reuse per-tree work across engines:
// share one interner between them (WithInterner), or — the persistent
// form of the same idea — store trees with their label ids in a
// corpus.Corpus and rebuild the PreparedTree with PrepareHydrated, which
// is how a corpus loaded from disk turns stored trees back into
// engine-ready ones without re-interning a label.
type PreparedTree struct {
	eng   *Engine
	t     *tree.Tree
	costs *cost.PerTree
	lfm   []int32

	// The bound profile is only consumed by DistanceBounded and the
	// filtered Join, so Prepare builds it lazily on first use;
	// PrepareHydrated and PrepareQuery build it up front.
	profOnce sync.Once
	prof     *bounds.Profile
}

// Prepare caches the per-tree inputs of t for this engine. The
// lower-bound profile is deferred until a bounded call needs it.
func (e *Engine) Prepare(t *tree.Tree) *PreparedTree {
	return e.derive(t, cost.CompileTree(e.model, t, e.in))
}

// derive assembles a PreparedTree from its priced labels and derives its
// tree-shaped input, the mirror-leafmost array.
func (e *Engine) derive(t *tree.Tree, costs *cost.PerTree) *PreparedTree {
	return &PreparedTree{eng: e, t: t, costs: costs, lfm: gted.MirrorLeafmost(t)}
}

// Hydration carries the stored form of a tree's labels — typically from
// a persisted corpus — so PrepareHydrated can skip interning them.
type Hydration struct {
	// In is the interner the label ids were assigned by. It must be the
	// engine's own interner (engines created via corpus.Corpus.Engine
	// share the corpus's): ids minted by any other interner would alias
	// arbitrary labels.
	In *cost.Interner
	// IDs is the interned label id of every node, in postorder. The
	// hydrated tree keeps this slice, once, as its label ids and as its
	// bound profile's postorder sequence, so the caller must not modify
	// it afterwards.
	IDs []int32
}

// PrepareHydrated is Prepare fed from stored label ids: the ids come
// from h instead of the interner, the per-node delete/insert costs are
// priced under the engine's cost model — which is what makes one stored
// tree serve engines with different models — and everything else is
// derived here: the mirror-leafmost array and the bound profile, built
// now rather than on first bounded use so a warmed corpus leaves nothing
// for its first request to build. The engine-binding rule is unchanged; what moves is the
// compatibility check: instead of "same engine", the hydration must
// carry the engine's interner, and mismatches panic with both parties
// named.
func (e *Engine) PrepareHydrated(t *tree.Tree, h Hydration) *PreparedTree {
	if h.In != e.in {
		panic(fmt.Sprintf(
			"batch: Hydration carries interner %p but engine %p uses interner %p; "+
				"hydrate only into engines attached to the ids' corpus (corpus.Corpus.Engine)",
			h.In, e, e.in))
	}
	pc, err := cost.CompileTreeFromIDs(e.model, t, h.IDs, e.in)
	if err != nil {
		panic("batch: " + err.Error())
	}
	p := e.derive(t, pc)
	p.prof = bounds.NewProfile(t, h.IDs)
	return p
}

// profile returns the tree's bound profile, building it on first use
// (hydrated and query trees have it already). Safe for concurrent
// callers.
func (p *PreparedTree) profile() *bounds.Profile {
	p.profOnce.Do(func() {
		if p.prof == nil {
			p.prof = bounds.NewProfile(p.t, p.costs.IDs)
		}
	})
	return p.prof
}

// PrepareQuery prepares an ad-hoc tree for the request path of a
// serving workload: a query that arrives over the wire, pairs against
// corpus-hydrated trees for one request, and is then garbage. The
// artifacts are those of Prepare — the engine's interner assigns the
// label ids, so the result pairs with any PreparedTree of the same
// engine (or of the corpus that created it) — but the lower-bound
// profile is built eagerly rather than lazily: request handlers consult
// it on their very next call (DistanceBounded, TopKAcross, filtered
// joins), and building it here keeps that work out of the
// admission-controlled critical section where it would count against
// another request's queue time.
//
// Nothing is cached anywhere: the corpus-side PreparedTree cache is for
// stored trees, and a server that prepared its queries through it would
// grow without bound. Labels never seen before are still interned into
// the shared table (ids must be comparable against stored trees'); that
// table grows by the union of distinct labels served, which is why
// servers cap request tree sizes at admission.
func (e *Engine) PrepareQuery(t *tree.Tree) *PreparedTree {
	p := e.Prepare(t)
	p.profile()
	return p
}

// PrepareAll prepares every tree of a collection.
func (e *Engine) PrepareAll(ts []*tree.Tree) []*PreparedTree {
	out := make([]*PreparedTree, len(ts))
	for i, t := range ts {
		out[i] = e.Prepare(t)
	}
	return out
}

// Tree returns the underlying tree.
func (p *PreparedTree) Tree() *tree.Tree { return p.t }

// Len returns the number of nodes of the underlying tree.
func (p *PreparedTree) Len() int { return p.t.Len() }
