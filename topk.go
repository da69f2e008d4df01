package ted

import (
	"time"

	"repro/batch"
	"repro/corpus"
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
// The implementation runs one RTED computation on the batch engine,
// which produces the distances between the query and every subtree of
// data as a byproduct of GTED's distance matrix, then selects the k
// smallest. This is the exact, unpruned baseline of TASM:
// O(|query|·|data|) space and the full RTED time, robust to any tree
// shape. To match one query against many data trees, use the batch
// engine directly and Prepare the query once.
func TopKSubtrees(query, data *Tree, k int, opts ...Option) []SubtreeMatch {
	if k <= 0 {
		return nil
	}
	c := buildConfig(opts)
	if c.alg == ZhangShashaClassic {
		// ZS-classic has no strategy form; serve it with RTED, which
		// dominates it anyway.
		c.alg = RTED
	}
	start := time.Now()
	e := c.batchEngine(1)
	ms, st := e.TopKSubtrees(e.Prepare(query), e.Prepare(data), k)
	if c.stats != nil {
		*c.stats = batchStats(st, time.Since(start))
	}
	out := make([]SubtreeMatch, len(ms))
	for i, m := range ms {
		out[i] = SubtreeMatch{Root: m.Root, Dist: m.Dist}
	}
	return out
}

// CrossSubtreeMatch is one result of TopKSubtreesAcross: the subtree
// rooted at postorder id Root of the data tree at index Tree, at edit
// distance Dist from the query.
type CrossSubtreeMatch struct {
	Tree int
	Root int
	Dist float64
}

// TopKSubtreesAcross finds the k subtrees closest to the query across a
// whole collection of data trees — the result of running TopKSubtrees on
// every tree and merging, computed far cheaper: data trees stream through
// the batch engine and each GTED run is bounded by the current k-th best
// distance, so DP work shrinks as the results improve. Under UnitCost the
// trees are visited in ascending order of a label-multiset lower bound on
// their subtrees' distances to the query, and the scan stops once that
// bound exceeds the k-th best, so the remaining trees run no DP at all.
// Ties break toward smaller (Tree, Root); results are sorted by distance.
//
// The collection runs through the corpus layer (package corpus), so
// repeated queries against a persistent collection amortize all per-tree
// work: keep a corpus.Corpus (or Load one) and call Corpus.TopKAcross
// with a corpus-attached engine.
func TopKSubtreesAcross(query *Tree, data []*Tree, k int, opts ...Option) []CrossSubtreeMatch {
	if k <= 0 || len(data) == 0 {
		return nil
	}
	c := buildConfig(opts)
	if c.alg == ZhangShashaClassic {
		c.alg = RTED // no strategy form; RTED dominates it anyway
	}
	start := time.Now()
	cp := corpus.New()
	pos := make(map[corpus.ID]int, len(data))
	for i, t := range data {
		pos[cp.Add(t)] = i
	}
	e := cp.Engine(c.batchOpts(1)...)
	cms, st := cp.TopKAcross(e, e.Prepare(query), k)
	ms := make([]batch.CrossMatch, len(cms))
	for i, m := range cms {
		ms[i] = batch.CrossMatch{Tree: pos[m.Tree], Root: m.Root, Dist: m.Dist}
	}
	if c.stats != nil {
		*c.stats = batchStats(st, time.Since(start))
	}
	out := make([]CrossSubtreeMatch, len(ms))
	for i, m := range ms {
		out[i] = CrossSubtreeMatch{Tree: m.Tree, Root: m.Root, Dist: m.Dist}
	}
	return out
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
		*c.stats = gtedStats(run.Stats(), time.Since(start))
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
