package corpus

import (
	"context"
	"math"

	"repro/batch"
)

// CrossMatch is one result of TopKAcross: the subtree rooted at
// postorder id Root of the stored tree Tree, at edit distance Dist from
// the query.
type CrossMatch struct {
	Tree ID
	Root int
	Dist float64
}

// TopKAcross finds the k subtrees closest to query across every stored
// tree, on engine e (corpus-attached). Stored trees prepare from their
// label ids; the query is prepared fresh. Semantics are those of
// batch.Engine.TopKAcross: results sorted by distance, ties toward
// smaller (Tree, Root), and each GTED run bounded by the running k-th
// best distance.
func (c *Corpus) TopKAcross(e *batch.Engine, query *batch.PreparedTree, k int) ([]CrossMatch, batch.Stats) {
	ms, st, _ := c.topK(context.Background(), e, query, k, 0, math.MaxInt)
	return ms, st
}

// TopKRangeStream is TopKAcross over a range, with streaming delivery
// and cancellation: the k subtrees closest to query among the stored
// trees whose snapshot position falls in [lo, hi) ([0, math.MaxInt) is
// every tree). The scan checks ctx between stored trees and abandons
// the remaining work once cancelled, returning ctx's error and emitting
// nothing — partial top-k answers are not sound; run to completion, the
// k matches are passed to emit one at a time in result order and the
// call returns the scan's stats. Each range's result is its local top k
// under the global order (distance, then stored ID, then root), so
// merging the per-range results of a partition and keeping the k best
// reconstructs TopKAcross's answer exactly: any global top-k entry ranks
// in the top k of its own range. It serves a server's top-k, ranged
// (see server.Range) or whole.
func (c *Corpus) TopKRangeStream(ctx context.Context, e *batch.Engine, query *batch.PreparedTree, k, lo, hi int, emit func(CrossMatch)) (batch.Stats, error) {
	ms, st, err := c.topK(ctx, e, query, k, lo, hi)
	for _, m := range ms {
		emit(m)
	}
	return st, err
}

// topK is the one scan behind TopKAcross and TopKRangeStream:
// batch.Engine.TopKAcrossStream over the snapshot positions
// [lo, hi), its results mapped to stored IDs. A cancelled scan returns
// no matches.
func (c *Corpus) topK(ctx context.Context, e *batch.Engine, query *batch.PreparedTree, k, lo, hi int) ([]CrossMatch, batch.Stats, error) {
	c.checkEngine(e)
	ids, ps := c.snapshotPrepared(e, nil)
	lo, hi = clampRange(lo, hi, len(ids))
	ms, st, err := e.TopKAcrossStream(ctx, query, ps[lo:hi], k)
	if err != nil {
		return nil, st, err
	}
	out := make([]CrossMatch, len(ms))
	for i, m := range ms {
		out[i] = CrossMatch{Tree: ids[lo+m.Tree], Root: m.Root, Dist: m.Dist}
	}
	return out, st, nil
}
