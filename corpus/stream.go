package corpus

import (
	"context"
	"time"

	"repro/batch"
)

// JoinStream is the streaming Join: every match is passed to emit as
// soon as its pair resolves on the worker pool, instead of being
// buffered into a slice — the corpus side of a server streaming NDJSON
// join results to a client.
//
// Candidate generation, mode resolution, snapshot consistency and the
// match set are exactly Join's (run to completion, the emitted multiset
// equals Join's result); only the delivery differs. emit runs on the
// calling goroutine, one invocation at a time, in completion order.
// Cancelling ctx stops the engine work at the next pair boundary and
// returns ctx's error; the returned stats then cover only the pairs
// actually evaluated.
func (c *Corpus) JoinStream(ctx context.Context, e *batch.Engine, tau float64, opts batch.JoinOptions, emit func(Match)) (batch.JoinStats, error) {
	c.checkEngine(e)
	p := c.planJoin(e, tau, opts)
	switch {
	case !e.UnitCost():
		return e.JoinStream(ctx, p.ps, tau, false, mapEmit(p.ids, emit))
	case !p.probed:
		return e.JoinIndexedStream(ctx, p.ps, tau, batch.JoinOptions{Mode: p.mode, Q: opts.Q}, mapEmit(p.ids, emit))
	}
	start := time.Now()
	st, err := e.JoinCandidatesStream(ctx, p.ps, p.cands, tau, mapEmit(p.ids, emit))
	st.Mode = p.mode
	st.IndexTime = p.probeTime
	st.Elapsed = p.probeTime + time.Since(start)
	return st, err
}

// mapEmit translates engine matches (collection positions) into corpus
// matches (stored IDs) on the way to the caller's emit. Positions are
// aligned with the ascending snapshot IDs, so I < J is preserved.
func mapEmit(ids []ID, emit func(Match)) func(batch.Match) {
	return func(m batch.Match) {
		emit(Match{I: ids[m.I], J: ids[m.J], Dist: m.Dist})
	}
}

// TopKAcrossStream is TopKAcross with streaming delivery and
// cancellation: the scan checks ctx between stored trees and abandons
// the remaining work once cancelled (returning ctx's error and emitting
// nothing — partial top-k answers are not sound); run to completion,
// the final k matches are passed to emit one at a time in result order
// and the call returns the scan's stats.
func (c *Corpus) TopKAcrossStream(ctx context.Context, e *batch.Engine, query *batch.PreparedTree, k int, emit func(CrossMatch)) (batch.Stats, error) {
	c.checkEngine(e)
	ids, ps := c.snapshotPrepared(e, nil)
	ms, st, err := e.TopKAcrossStream(ctx, query, ps, k)
	if err != nil {
		return st, err
	}
	for _, m := range ms {
		emit(CrossMatch{Tree: ids[m.Tree], Root: m.Root, Dist: m.Dist})
	}
	return st, nil
}
