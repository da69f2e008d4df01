package batch

import (
	"container/heap"
	"context"
	"math"
	"sort"

	"repro/internal/bounds"
)

// CrossMatch is one result of TopKAcross: the subtree rooted at postorder
// id Root of the data tree at index Tree, at edit distance Dist from the
// query.
type CrossMatch struct {
	Tree int
	Root int
	Dist float64
}

func crossLess(a, b CrossMatch) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.Tree != b.Tree {
		return a.Tree < b.Tree
	}
	return a.Root < b.Root
}

// TopKAcross finds the k subtrees closest to the query across a whole
// collection of data trees. One GTED run per data tree produces the
// distances from the query to every subtree of that tree as a byproduct
// of its distance matrix; the cutoff of each run is the current k-th
// best distance: once the result heap is full, DP cells that provably
// cannot beat it are skipped and saturated (gted.SetCutoff), so the
// per-tree cost shrinks as the results improve — the bounded-TED
// analogue of TASM's pruning. The result is the merge of every tree's
// exact subtree distances cut to k: ties break toward smaller
// (Tree, Root); results are sorted by distance. Over a one-tree
// collection it is one exact run, since the heap is empty when the tree
// is visited.
//
// Under the unit cost model the scan first bounds, for every data tree,
// the distance from the query to any of its subtrees by the label
// multisets (bounds.SubtreeLowerProfiled), visits the trees in ascending
// (bound, position) order, and stops at the first tree whose bound
// exceeds the current k-th best: no remaining tree can place a subtree
// in the result. Once the heap is full it also skips, without DP, each
// visited tree whose Euler-string bound (bounds.EulerScratch) exceeds
// the k-th best — a skip rather than a stop, since that bound does not
// follow the visit order. Other cost models visit every tree in position
// order. Neither the visit order nor the skips can change the answer,
// because the heap order (Dist, Tree, Root) is total and a skipped tree
// has no subtree at or below the k-th best.
//
// Once ctx is done the scan stops inside the pair it is running
// (gted.Runner) and returns ctx's error, the stats of the work done so
// far and no matches: the partial heap is not the top k of the
// collection — a cancelled call is an abandoned one, not an approximate
// answer.
func (e *Engine) TopKAcross(ctx context.Context, query *PreparedTree, data []*PreparedTree, k int) ([]CrossMatch, Stats, error) {
	var st Stats
	if k <= 0 || len(data) == 0 {
		return nil, st, ctx.Err()
	}
	e.check(query)
	e.check(data...)
	stop, release := stopOn(ctx)
	defer release()
	ws := e.getWS(stop)
	defer e.putWS(ws)

	q := query.t.Root()
	if e.unit {
		ws.euler.SetQuery(query.prof)
	}
	h := &crossHeap{}
	heap.Init(h)
	for _, v := range e.topKOrder(query, data) {
		if stop.Load() {
			break
		}
		tau := math.Inf(1)
		if h.Len() == k {
			tau = h.items[0].Dist
		}
		// Bounds ascend along the visit order, so once one passes the
		// k-th best every later tree's does too. Strictly greater: a
		// subtree at exactly the k-th best distance may still win its
		// (Tree, Root) tie.
		if v.lb > tau {
			break
		}
		di, d := v.pos, data[v.pos]
		// The Euler-string bound does not follow the visit order, so a
		// tree it places beyond the k-th best is skipped, not a stop.
		// It never exceeds |Q|, so a cutoff at or above |Q| (or none,
		// while the heap fills) leaves nothing to check.
		if e.unit && tau < float64(query.Len()) && ws.euler.SubtreeEulerLower(d.prof, tau) > tau {
			continue
		}
		r := e.pairRunner(ws, query, d)
		r.SetCutoff(tau)
		r.Run()
		st.Merge(r.Stats())
		if stop.Load() {
			break // the run may have stopped short: its matrix is not read
		}
		// All matrix reads happen before the workspace returns to the
		// pool: the matrix memory is arena-owned and reused by the next
		// pair.
		for w := 0; w < d.t.Len(); w++ {
			m := CrossMatch{Tree: di, Root: w, Dist: r.Dist(q, w)}
			if h.Len() < k {
				heap.Push(h, m)
				continue
			}
			// Saturated entries (Dist > tau ≥ heap max) can never win;
			// entries at or below the cutoff are exact and compare fairly.
			if crossLess(m, h.items[0]) {
				h.items[0] = m
				heap.Fix(h, 0)
			}
		}
	}
	if stop.Load() {
		return nil, st, ctx.Err()
	}
	out := append([]CrossMatch(nil), h.items...)
	sort.Slice(out, func(i, j int) bool { return crossLess(out[i], out[j]) })
	return out, st, nil
}

// crossHeap is a max-heap on (Dist, Tree, Root) so the worst kept match
// is evicted first.
type crossHeap struct{ items []CrossMatch }

func (h *crossHeap) Len() int           { return len(h.items) }
func (h *crossHeap) Less(i, j int) bool { return crossLess(h.items[j], h.items[i]) }
func (h *crossHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *crossHeap) Push(x any)         { h.items = append(h.items, x.(CrossMatch)) }
func (h *crossHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// topKVisit is one data tree in TopKAcross's visit order: its position
// in the collection and a lower bound on the distance from the query to
// each of its subtrees.
type topKVisit struct {
	pos int
	lb  float64
}

// topKOrder returns the order TopKAcross visits data in. Under the unit
// cost model each tree carries bounds.SubtreeLowerProfiled and the trees
// ascend by (bound, position), so the trees most likely to hold close
// subtrees shrink the cutoff first and the scan can stop at the first
// bound beyond it. The bound only holds for unit costs; other models
// visit in position order with a zero bound, which never stops the
// scan.
func (e *Engine) topKOrder(query *PreparedTree, data []*PreparedTree) []topKVisit {
	vs := make([]topKVisit, len(data))
	for i := range vs {
		vs[i].pos = i
	}
	if !e.unit {
		return vs
	}
	qp := query.prof
	for i, d := range data {
		vs[i].lb = bounds.SubtreeLowerProfiled(qp, d.prof)
	}
	sort.Slice(vs, func(a, b int) bool {
		if vs[a].lb != vs[b].lb {
			return vs[a].lb < vs[b].lb
		}
		return vs[a].pos < vs[b].pos
	})
	return vs
}
