package batch

import (
	"container/heap"
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/bounds"
)

// This file is the streaming half of the join/top-k API: results are
// handed to the caller as they are found instead of buffered into a
// slice, and a context threads cancellation back into the worker pool —
// the engine side of a server streaming NDJSON to a client that may
// disconnect mid-response. The buffered Join is JoinStream followed by
// an (I, J) sort.
//
// Contracts shared by every streaming call:
//
//   - emit runs on the calling goroutine, one invocation at a time, in
//     completion order (nondeterministic across runs). Run to
//     completion, the emitted multiset is exactly the buffered call's
//     match set; only the order differs.
//   - Cancelling ctx stops the work: workers abandon remaining pairs at
//     the next pair boundary and the call returns ctx's error. The
//     returned stats then cover only the work actually done
//     (JoinStats.Comparisons counts evaluated pairs, not planned ones).

// JoinStream is the streaming Join: every match is passed to emit as
// soon as its pair resolves. See the streaming contracts above.
func (e *Engine) JoinStream(ctx context.Context, trees []*PreparedTree, tau float64, filtered bool, emit func(Match)) (JoinStats, error) {
	e.check(trees...)
	if filtered && !e.unit {
		panic("batch: filtered Join/JoinStream requires the unit cost model")
	}
	start := time.Now()
	st, err := e.joinPairs(ctx, trees, allPairs(len(trees)), tau, filtered, emit)
	st.Mode = IndexEnumerate
	st.Elapsed = time.Since(start)
	return st, err
}

// JoinCandidatesStream runs the filtered join pipeline over candidate
// pairs the caller generated — a corpus probing its indexes, or a
// distributed worker that owns a range of the pair space — instead of
// every pair. Candidates flow through the same filters as the filtered
// Join (the carried LB with the size and label-histogram bounds, the
// tau-banded constrained upper bound, the remaining profiled lower
// bounds, cutoff-seeded exact GTED), so the matches among the
// candidates are exactly the candidates at distance < tau, passed to
// emit as found. Requires the unit cost model. See the streaming
// contracts above.
func (e *Engine) JoinCandidatesStream(ctx context.Context, trees []*PreparedTree, cands []CandidatePair, tau float64, emit func(Match)) (JoinStats, error) {
	e.check(trees...)
	if !e.unit {
		panic("batch: JoinCandidatesStream requires the unit cost model")
	}
	start := time.Now()
	st, err := e.joinPairs(ctx, trees, candidatePairs(trees, cands), tau, true, emit)
	st.Mode = IndexEnumerate
	st.Elapsed = time.Since(start)
	return st, err
}

// TopKAcrossStream is TopKAcross with cancellation: the scan over data
// trees — label-bound order, early stop and Euler-bound skips, as
// TopKAcross describes — checks ctx between trees. A cancelled call
// returns ctx's error and the stats of the work done so far; when the
// cancellation cut the scan short the matches are nil, because the
// partial heap is not the top k of the collection — a cancelled call is
// an abandoned one, not an approximate answer.
//
// Top-k results are only final once the scan stops, so unlike
// JoinStream there is nothing sound to emit early; the streaming
// transport value is in the NDJSON framing and in cancellation, not in
// early partial answers.
func (e *Engine) TopKAcrossStream(ctx context.Context, query *PreparedTree, data []*PreparedTree, k int) ([]CrossMatch, Stats, error) {
	var st Stats
	if k <= 0 || len(data) == 0 {
		return nil, st, ctx.Err()
	}
	e.check(query)
	e.check(data...)
	ws := e.getWS()
	defer e.putWS(ws)

	q := query.t.Root()
	if e.unit {
		ws.euler.SetQuery(query.prof)
	}
	h := &crossHeap{}
	heap.Init(h)
	for _, v := range e.topKOrder(query, data) {
		if ctx.Err() != nil {
			return nil, st, ctx.Err()
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
	out := append([]CrossMatch(nil), h.items...)
	sort.Slice(out, func(i, j int) bool { return crossLess(out[i], out[j]) })
	return out, st, ctx.Err()
}

// topKVisit is one data tree in TopKAcrossStream's visit order: its
// position in the collection and a lower bound on the distance from the
// query to each of its subtrees.
type topKVisit struct {
	pos int
	lb  float64
}

// topKOrder returns the order TopKAcrossStream visits data in. Under the
// unit cost model each tree carries bounds.SubtreeLowerProfiled and the
// trees ascend by (bound, position), so the trees most likely to hold
// close subtrees shrink the cutoff first and the scan can stop at the
// first bound beyond it. The bound only holds for unit costs; other
// models visit in position order with a zero bound, which never stops
// the scan.
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
