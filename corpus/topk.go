package corpus

import (
	"context"
	"math"

	"repro/batch"
)

// CrossMatch is one result of TopKRange: the subtree rooted at
// postorder id Root of the stored tree Tree, at edit distance Dist from
// the query.
type CrossMatch struct {
	Tree ID
	Root int
	Dist float64
}

// TopKAcross is TopKRange over every stored tree under
// context.Background().
func (c *Corpus) TopKAcross(e *batch.Engine, query *batch.PreparedTree, k int) ([]CrossMatch, batch.Stats) {
	ms, st, _ := c.TopKRange(context.Background(), e, query, k, 0, math.MaxInt)
	return ms, st
}

// TopKRange finds the k subtrees closest to query among the stored trees
// whose snapshot position falls in [lo, hi) ([0, math.MaxInt) is every
// tree), on engine e (corpus-attached). Stored trees prepare from their
// label ids; the query is prepared by the caller. It runs
// batch.Engine.TopKAcross over those positions, so its semantics are
// that scan's: results sorted by distance, ties toward smaller
// (Tree, Root), each GTED run bounded by the running k-th best
// distance, and a cancelled ctx stops the scan inside its pair and
// returns ctx's error, the stats of the work done and no matches.
//
// Each range's result is its local top k under the global order
// (distance, then stored ID, then root), so merging the per-range
// results of a partition and keeping the k best reconstructs the whole
// corpus's answer exactly: any global top-k entry ranks in the top k of
// its own range. It serves a server's top-k, ranged (see server.Range)
// or whole.
func (c *Corpus) TopKRange(ctx context.Context, e *batch.Engine, query *batch.PreparedTree, k, lo, hi int) ([]CrossMatch, batch.Stats, error) {
	c.checkEngine(e)
	ids, ps := c.snapshotPrepared(e, nil)
	lo, hi = clampRange(lo, hi, len(ids))
	ms, st, err := e.TopKAcross(ctx, query, ps[lo:hi], k)
	if err != nil {
		return nil, st, err
	}
	out := make([]CrossMatch, len(ms))
	for i, m := range ms {
		out[i] = CrossMatch{Tree: ids[lo+m.Tree], Root: m.Root, Dist: m.Dist}
	}
	return out, st, nil
}
