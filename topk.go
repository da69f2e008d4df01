package ted

import (
	"context"
	"time"

	"repro/batch"
	"repro/internal/gted"
)

// SubtreeMatch is one result of TopKSubtrees: the subtree of the data
// tree rooted at postorder id Root, at edit distance Dist from the query.
type SubtreeMatch struct {
	Root int
	Dist float64
}

// TopKSubtrees finds the k subtrees of data with the smallest tree edit
// distance to query (the top-k approximate subtree matching problem of
// Augsten et al., discussed in Section 7 of the RTED paper). Ties are
// broken toward smaller postorder ids; results are sorted by distance.
//
// The implementation runs the batch engine's top-k scan over a one-tree
// collection: one exact RTED computation, which produces the distances
// between the query and every subtree of data as a byproduct of GTED's
// distance matrix, from which the k smallest are kept. This is the
// exact, unpruned baseline of TASM: O(|query|·|data|) space and the full
// RTED time, robust to any tree shape. To match one query against many
// data trees, use TopKSubtreesAcross.
func TopKSubtrees(query, data *Tree, k int, opts ...Option) []SubtreeMatch {
	var ms []SubtreeMatch
	for _, m := range TopKSubtreesAcross(query, []*Tree{data}, k, opts...) {
		ms = append(ms, SubtreeMatch{Root: m.Root, Dist: m.Dist})
	}
	return ms
}

// CrossSubtreeMatch is one result of TopKSubtreesAcross: the subtree
// rooted at postorder id Root of the data tree at index Tree, at edit
// distance Dist from the query.
type CrossSubtreeMatch = batch.CrossMatch

// TopKSubtreesAcross finds the k subtrees closest to the query across a
// whole collection of data trees — the result of running TopKSubtrees on
// every tree and merging, computed far cheaper: data trees stream through
// the batch engine and each GTED run is bounded by the current k-th best
// distance, so DP work shrinks as the results improve. Under UnitCost the
// trees are visited in ascending order of a label-multiset lower bound on
// their subtrees' distances to the query, and the scan stops once that
// bound exceeds the k-th best, so the remaining trees run no DP at all;
// before that, a visited tree whose Euler-string lower bound (half the
// least string edit distance from the query's Euler string to a substring
// of the tree's) already exceeds the k-th best is skipped without DP.
// Ties break toward smaller (Tree, Root); results are sorted by distance.
//
// Repeated queries against a persistent collection amortize all per-tree
// work in the corpus layer: keep a corpus.Corpus (or Load one) and call
// Corpus.TopKAcross with a corpus-attached engine.
func TopKSubtreesAcross(query *Tree, data []*Tree, k int, opts ...Option) []CrossSubtreeMatch {
	c := buildConfig(opts)
	if c.alg == ZhangShashaClassic {
		c.alg = RTED // no strategy form; RTED dominates it anyway
	}
	start := time.Now()
	e := c.batchEngine(1)
	ms, st, _ := e.TopKAcross(context.Background(), e.Prepare(query), e.PrepareAll(data), k)
	if c.stats != nil {
		*c.stats = Stats{Counters: st, TotalTime: time.Since(start)}
	}
	return ms
}

// SubtreeDistances computes the full |f|×|g| matrix of subtree-pair
// distances δ(F_v, G_w) — GTED fills it as part of any distance
// computation, and several applications (joins with common subtrees,
// top-k matching, change hot-spot detection) consume it directly.
func SubtreeDistances(f, g *Tree, opts ...Option) *DistMatrix {
	c := buildConfig(opts)
	alg := c.alg
	if alg == ZhangShashaClassic {
		alg = ZhangL
	}
	// A private runner (no shared arena): the returned matrix is live
	// after this call and must not be recycled under the caller.
	start := time.Now()
	run := gted.New(f, g, c.model, StrategyFor(alg, f, g))
	run.Run()
	if c.stats != nil {
		*c.stats = Stats{Counters: run.Stats(), TotalTime: time.Since(start)}
	}
	return &DistMatrix{nf: f.Len(), ng: g.Len(), d: run.Matrix()}
}

// DistMatrix is a read-only |F|×|G| matrix of subtree-pair distances.
type DistMatrix struct {
	nf, ng int
	d      []float64
}

// At returns δ(F_v, G_w) for postorder ids v, w.
func (m *DistMatrix) At(v, w int) float64 { return m.d[v*m.ng+w] }

// Dims returns the matrix dimensions (|F|, |G|).
func (m *DistMatrix) Dims() (int, int) { return m.nf, m.ng }
