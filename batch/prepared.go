package batch

import (
	"fmt"
	"sync"

	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// PreparedTree is a tree with every per-tree input of the distance
// machinery cached: decomposition cardinalities (the optimal-strategy
// cost formula of Section 5), the mirror-leafmost array consumed by ΔR,
// interned labels with per-node delete/insert costs, and the lower-bound
// profile. Preparing costs O(n) (O(n) space) and pays for itself as soon
// as a tree participates in more than one comparison.
//
// PreparedTrees are immutable and safe to share across goroutines. They
// are bound to the preparing engine, because label ids come from that
// engine's interner; passing one to another engine panics, naming both
// engines. There are two ways to reuse per-tree work across engines:
// share one interner between them (WithInterner), or — the persistent
// form of the same idea — store the artifacts in a corpus.Corpus and
// rebuild the PreparedTree with PrepareHydrated, which is how a corpus
// loaded from disk turns stored bytes back into engine-ready trees
// without recomputing anything.
type PreparedTree struct {
	eng     *Engine
	t       *tree.Tree
	costs   *cost.PerTree
	decomp  *strategy.Decomp
	lfm     []int32
	spectra []int32 // quantized depth spectra (gted.DepthSpectra)

	// The bound profile is only consumed by DistanceBounded and the
	// filtered Join, so it is built lazily on first use — unless a
	// hydration supplied it up front.
	profOnce sync.Once
	prof     *bounds.Profile
}

// Prepare caches the per-tree inputs of t for this engine. The
// decomposition cardinalities are skipped when the engine has a fixed
// strategy override (they only feed the optimal-strategy computation),
// and the lower-bound profile is deferred until a bounded call needs it.
func (e *Engine) Prepare(t *tree.Tree) *PreparedTree {
	p := &PreparedTree{
		eng:     e,
		t:       t,
		costs:   cost.CompileTree(e.model, t, e.in),
		lfm:     gted.MirrorLeafmost(t),
		spectra: gted.DepthSpectra(t),
	}
	if e.strat == nil {
		p.decomp = strategy.NewDecomp(t)
	}
	return p
}

// Hydration carries per-tree artifacts computed earlier — typically
// loaded from a persisted corpus — so PrepareHydrated can assemble a
// PreparedTree without redoing the per-tree work of Prepare.
type Hydration struct {
	// In is the interner the label ids were assigned by. It must be the
	// engine's own interner (engines created via corpus.Corpus.Engine
	// share the corpus's): ids minted by any other interner would alias
	// arbitrary labels.
	In *cost.Interner
	// IDs is the interned label id of every node, in postorder.
	IDs []int32
	// Decomp holds the decomposition cardinalities of every subtree
	// (strategy.NewDecomp output). Optional: nil recomputes on demand.
	Decomp *strategy.Decomp
	// Lfm is the mirror-coordinate leafmost array (gted.MirrorLeafmost
	// output). Optional: nil recomputes.
	Lfm []int32
	// Profile is the lower-bound profile (bounds.NewProfile over IDs).
	// Optional: nil falls back to the usual lazy build on first bounded
	// use. A profile of any other tree panics.
	Profile *bounds.Profile
}

// PrepareHydrated is Prepare fed from stored artifacts: label ids,
// decomposition cardinalities, the mirror-leafmost array and the bound
// profile come from h instead of being recomputed, and only the
// per-node delete/insert costs are (re)priced under the engine's cost
// model — which is what makes one stored artifact set serve engines
// with different models. The engine-binding rule is unchanged; what
// moves is the compatibility check: instead of "same engine", the
// hydration must carry the engine's interner, and mismatches panic with
// both parties named.
func (e *Engine) PrepareHydrated(t *tree.Tree, h Hydration) *PreparedTree {
	if h.In != e.in {
		panic(fmt.Sprintf(
			"batch: Hydration carries interner %p but engine %p uses interner %p; "+
				"hydrate only into engines attached to the artifacts' corpus (corpus.Corpus.Engine)",
			h.In, e, e.in))
	}
	pc, err := cost.CompileTreeFromIDs(e.model, t, h.IDs, e.in)
	if err != nil {
		panic("batch: " + err.Error())
	}
	n := t.Len()
	p := &PreparedTree{
		eng:     e,
		t:       t,
		costs:   pc,
		lfm:     h.Lfm,
		spectra: gted.DepthSpectra(t),
	}
	if len(p.lfm) != n {
		if p.lfm != nil {
			panic(fmt.Sprintf("batch: hydrated mirror-leafmost array has %d entries for a %d-node tree", len(p.lfm), n))
		}
		p.lfm = gted.MirrorLeafmost(t)
	}
	if e.strat == nil {
		d := h.Decomp
		if d != nil && (d.T != t || len(d.A) != n || len(d.FL) != n || len(d.FR) != n) {
			panic("batch: hydrated decomposition does not describe the hydrated tree")
		}
		p.decomp = d
		if p.decomp == nil {
			p.decomp = strategy.NewDecomp(t)
		}
	}
	if pr := h.Profile; pr != nil && (pr.Tree() != t || pr.Len() != n) {
		panic(fmt.Sprintf("batch: hydrated bound profile (%d nodes) does not describe the hydrated %d-node tree", pr.Len(), n))
	}
	p.prof = h.Profile
	return p
}

// profile returns the tree's bound profile, building it on first use
// (hydrated profiles skip the build). Safe for concurrent callers.
func (p *PreparedTree) profile() *bounds.Profile {
	p.profOnce.Do(func() {
		if p.prof == nil {
			ids := make([]int32, len(p.costs.IDs))
			for v, id := range p.costs.IDs {
				ids[v] = int32(id)
			}
			p.prof = bounds.NewProfile(p.t, ids)
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
