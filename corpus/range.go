package corpus

import (
	"time"

	"repro/batch"
	"repro/index"
)

// This file implements the range-partitioned halves of Join and
// TopKAcross — the worker-side primitives of a distributed join (see
// package cluster). A coordinator splits the probe space into position
// ranges over the ascending-ID snapshot; each worker Loads the same
// snapshot file, so positions agree across processes, and the union of
// the per-range results over a partition of [0, n) is exactly the
// single-node result.

// JoinRange computes the slice of the similarity self-join whose probe
// position falls in [lo, hi): all matches (I, J) with I < J and J's
// snapshot position in the range. Candidate generation follows
// opts.Mode exactly as in Join — maintained sharded posting lists when
// the corpus has them, a throwaway index or plain enumeration otherwise
// — and every candidate runs through batch.JoinCandidates, so the match
// set (and each match's Dist) over a partition of the position space is
// identical to Join's at every tau, enumerate and indexed modes alike.
// Requires the unit cost model, like every filtered join.
//
// Positions index the ascending-ID snapshot taken by this call; a
// distributed driver must pin the corpus contents (workers Load one
// shared snapshot file) for ranges computed elsewhere to mean the same
// trees here.
func (c *Corpus) JoinRange(e *batch.Engine, tau float64, opts batch.JoinOptions, lo, hi int) ([]Match, batch.JoinStats) {
	c.checkEngine(e)
	if !e.UnitCost() {
		panic("corpus: JoinRange requires the unit cost model")
	}
	var (
		mode      batch.IndexMode
		cands     []batch.CandidatePair
		probeTime time.Duration
	)
	ids, ps := c.snapshotPrepared(e, func(ids []ID, ps []*batch.PreparedTree) {
		mode = c.resolveMode(ps, tau, opts.Mode)
		rlo, rhi := lo, hi
		if rlo < 0 {
			rlo = 0
		}
		if rhi > len(ids) {
			rhi = len(ids)
		}
		if rlo >= rhi {
			return
		}
		start := time.Now()

		// Maintained-index probes run under the same lock as the
		// snapshot, exactly as in Join; a worker over a Load'd snapshot
		// has no concurrent mutations, but the discipline costs nothing.
		probe := c.maintainedProbe(mode, opts, tau)
		switch {
		case probe != nil:
			cands = probeRange(probe, ids, rlo, rhi)
		case mode == batch.IndexEnumerate:
			for j := rlo; j < rhi; j++ {
				for i := 0; i < j; i++ {
					cands = append(cands, batch.CandidatePair{I: i, J: j})
				}
			}
		default:
			// The selected index is not maintained: build a throwaway one
			// over the snapshot positions, as batch.JoinIndexed would, and
			// probe only the range.
			q := opts.Q
			if q <= 0 {
				q = 2
			}
			cands = throwawayCandidates(ps, tau, mode, q, rlo, rhi)
		}
		probeTime = time.Since(start)
	})

	start := time.Now()
	ms, st := e.JoinCandidates(ps, cands, tau)
	st.Mode = mode
	st.IndexTime = probeTime
	st.Elapsed = probeTime + time.Since(start)
	return c.toMatches(ids, ms), st
}

// throwawayCandidates builds a transient index over the whole snapshot
// (positions as ids) and probes only the [lo, hi) range — the range
// analogue of batch.JoinIndexed's per-call index build.
func throwawayCandidates(ps []*batch.PreparedTree, tau float64, mode batch.IndexMode, q int, lo, hi int) []batch.CandidatePair {
	var probe func(j int, buf []index.Candidate) []index.Candidate
	switch mode {
	case batch.IndexPQGram:
		ix := index.NewPQGram(1, q)
		for _, p := range ps {
			ix.Add(p.Tree())
		}
		probe = func(j int, buf []index.Candidate) []index.Candidate {
			return ix.CandidatesBelow(j, tau, buf)
		}
	default: // histogram, and any future mode resolved to it
		ix := index.NewHistogram()
		for _, p := range ps {
			ix.Add(p.Tree())
		}
		probe = func(j int, buf []index.Candidate) []index.Candidate {
			return ix.CandidatesBelow(j, tau, buf)
		}
	}
	var cands []batch.CandidatePair
	var buf []index.Candidate
	for j := lo; j < hi; j++ {
		buf = probe(j, buf)
		for _, cd := range buf {
			cands = append(cands, batch.CandidatePair{I: cd.ID, J: j, LB: cd.LB})
		}
	}
	return cands
}

// TopKRange is the [lo, hi) slice of TopKAcross: the k subtrees closest
// to query among the stored trees whose snapshot position falls in the
// range. Each range's result is its local top-k under the global order
// (distance, then stored ID, then root), so a coordinator that merges
// the per-range results and keeps the k best reconstructs TopKAcross's
// answer exactly: any global top-k entry ranks in the top k of its own
// range.
func (c *Corpus) TopKRange(e *batch.Engine, query *batch.PreparedTree, k, lo, hi int) ([]CrossMatch, batch.Stats) {
	c.checkEngine(e)
	ids, ps := c.snapshotPrepared(e, nil)
	if lo < 0 {
		lo = 0
	}
	if hi > len(ids) {
		hi = len(ids)
	}
	if lo >= hi {
		return nil, batch.Stats{}
	}
	ms, st := e.TopKAcross(query, ps[lo:hi], k)
	out := make([]CrossMatch, len(ms))
	for i, m := range ms {
		out[i] = CrossMatch{Tree: ids[lo+m.Tree], Root: m.Root, Dist: m.Dist}
	}
	return out, st
}
