package batch

import (
	"container/heap"
	"context"
	"sort"
)

// SubtreeMatch is one result of TopKSubtrees: the subtree of the data
// tree rooted at postorder id Root, at edit distance Dist from the query.
type SubtreeMatch struct {
	Root int
	Dist float64
}

// TopKSubtrees finds the k subtrees of data with the smallest edit
// distance to query. One GTED run produces the distances from the query
// to every subtree of data as a byproduct of its distance matrix; the k
// smallest are selected with a bounded heap. Ties break toward smaller
// postorder ids; results are sorted by distance. The returned Stats
// carry the run's instrumentation.
func (e *Engine) TopKSubtrees(query, data *PreparedTree, k int) ([]SubtreeMatch, Stats) {
	var st Stats
	if k <= 0 {
		return nil, st
	}
	ws := e.getWS()
	defer e.putWS(ws)
	r := e.pairRunner(ws, query, data)
	r.Run()
	st.Merge(r.Stats())

	// All matrix reads happen before the workspace returns to the pool:
	// the matrix memory is arena-owned and reused by the next pair.
	q := query.t.Root()
	h := &matchHeap{}
	heap.Init(h)
	for w := 0; w < data.t.Len(); w++ {
		m := SubtreeMatch{Root: w, Dist: r.Dist(q, w)}
		if h.Len() < k {
			heap.Push(h, m)
			continue
		}
		if worse(h.items[0], m) {
			h.items[0] = m
			heap.Fix(h, 0)
		}
	}
	out := append([]SubtreeMatch(nil), h.items...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out, st
}

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
// collection of data trees. The cutoff of each GTED run is the current
// k-th best distance: once the result heap is full, DP cells that
// provably cannot beat it are skipped and saturated (gted.SetCutoff), so
// the per-tree cost shrinks as the results improve — the bounded-TED
// analogue of TASM's pruning. The result is identical to running
// TopKSubtrees per tree and merging: ties break toward smaller
// (Tree, Root); results are sorted by distance.
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
func (e *Engine) TopKAcross(query *PreparedTree, data []*PreparedTree, k int) ([]CrossMatch, Stats) {
	ms, st, _ := e.TopKAcrossStream(context.Background(), query, data, k)
	return ms, st
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

func less(a, b SubtreeMatch) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Root < b.Root
}

// worse reports whether a is worse (larger) than b in the top-k order.
func worse(a, b SubtreeMatch) bool { return less(b, a) }

// matchHeap is a max-heap on (Dist, Root) so the worst kept match sits
// at the top and is evicted first.
type matchHeap struct{ items []SubtreeMatch }

func (h *matchHeap) Len() int           { return len(h.items) }
func (h *matchHeap) Less(i, j int) bool { return less(h.items[j], h.items[i]) }
func (h *matchHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *matchHeap) Push(x any)         { h.items = append(h.items, x.(SubtreeMatch)) }
func (h *matchHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
