package corpus

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"repro/batch"
	"repro/index"
)

// Match is one similarity-join result: the trees stored under IDs I and
// J (I < J) are at edit distance Dist < tau (for a pair accepted by the
// upper-bound filter, Dist is that upper bound, still below tau).
type Match struct {
	I, J ID
	Dist float64
}

// Join computes the similarity self-join of the corpus on engine e: all
// unordered ID pairs at edit distance below tau. The engine must be
// corpus-attached (Corpus.Engine); every stored tree is hydrated from
// its artifacts, not re-prepared.
//
// Candidate generation follows opts.Mode as in batch.JoinIndexed, with
// one upgrade: when the corpus maintains the selected index
// (WithHistogramIndex / WithPQGramIndex), its persistent sharded
// posting lists are probed directly — no per-call index build — and the
// candidates run through batch.JoinCandidates. Otherwise the call falls
// back to batch.JoinIndexed's throwaway index (or plain enumeration).
// The match set is identical in every mode; under a non-unit cost model
// only unfiltered enumeration is available and opts.Mode is ignored.
//
// Results are deterministic and ordered by (I, J) — assuming no
// concurrent Add/Delete/Replace; mutations during a join are safe and
// the join reflects one consistent snapshot: the prepared trees and the
// maintained-index probes are captured under a single lock acquisition,
// so a Replace landing mid-join cannot suppress candidates for trees
// the snapshot still holds in their old form.
func (c *Corpus) Join(e *batch.Engine, tau float64, opts batch.JoinOptions) ([]Match, batch.JoinStats) {
	ms, st, _ := c.JoinContext(context.Background(), e, tau, opts)
	return ms, st
}

// JoinContext is Join with cancellation: cancelling ctx stops the engine
// work at the next pair boundary, and the call returns nil matches, the
// stats of the pairs evaluated so far and ctx's error. It is JoinStream
// followed by an (I, J) sort.
func (c *Corpus) JoinContext(ctx context.Context, e *batch.Engine, tau float64, opts batch.JoinOptions) ([]Match, batch.JoinStats, error) {
	var ms []Match
	st, err := c.JoinStream(ctx, e, tau, opts, func(m Match) { ms = append(ms, m) })
	if err != nil {
		return nil, st, err
	}
	slices.SortFunc(ms, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	return ms, st, nil
}

// joinPlan is one join's snapshot: the stored IDs and prepared trees,
// the resolved candidate generator and, when a maintained index serves
// it, the candidates probed from that index.
type joinPlan struct {
	ids       []ID
	ps        []*batch.PreparedTree
	mode      batch.IndexMode
	probed    bool
	cands     []batch.CandidatePair
	probeTime time.Duration
}

// planJoin snapshots the corpus for a join on e. Under a non-unit cost
// model only the snapshot is taken (only unfiltered enumeration runs).
func (c *Corpus) planJoin(e *batch.Engine, tau float64, opts batch.JoinOptions) joinPlan {
	var p joinPlan
	if !e.UnitCost() {
		p.ids, p.ps = c.snapshotPrepared(e, nil)
		return p
	}

	// Mode resolution and index probing run inside the snapshot hook —
	// same lock acquisition as the prepared trees — so the candidates
	// describe exactly the trees being joined.
	p.ids, p.ps = c.snapshotPrepared(e, func(ids []ID, ps []*batch.PreparedTree) {
		p.mode = c.resolveMode(ps, tau, opts.Mode)
		probe := c.maintainedProbe(p.mode, opts, tau)
		if probe == nil {
			return // no maintained index serves this mode
		}
		p.probed = true
		start := time.Now()
		p.cands = probeRange(probe, ids, 0, len(ids))
		p.probeTime = time.Since(start)
	})
	return p
}

// probeFunc returns the candidates of the stored tree with the given ID
// from an index, reusing buf.
type probeFunc func(id int, buf []index.Candidate) []index.Candidate

// maintainedProbe returns the candidate probe of the maintained index
// that serves mode, or nil when none does. An auto-resolved pq-gram mode
// takes the maintained index at whatever base length it was built with
// (any (1, q) generator is complete); an explicit IndexPQGram request
// honors opts.Q (default 2). The caller holds the corpus lock.
func (c *Corpus) maintainedProbe(mode batch.IndexMode, opts batch.JoinOptions, tau float64) probeFunc {
	wantQ := opts.Q
	if wantQ <= 0 {
		wantQ = 2
	}
	switch {
	case mode == batch.IndexHistogram && c.hist != nil:
		return func(id int, buf []index.Candidate) []index.Candidate {
			return c.hist.CandidatesBelow(id, tau, buf)
		}
	case mode == batch.IndexPQGram && c.pq != nil && (opts.Mode == batch.IndexAuto || c.pq.Q() == wantQ):
		return func(id int, buf []index.Candidate) []index.Candidate {
			return c.pq.CandidatesBelow(id, tau, buf)
		}
	}
	return nil
}

// probeRange probes a maintained index for the snapshot positions
// [lo, hi) and translates the candidates to position pairs, skipping
// tombstoned postings of deleted trees.
func probeRange(probe probeFunc, ids []ID, lo, hi int) []batch.CandidatePair {
	pos := make(map[int]int, len(ids))
	for i, id := range ids {
		pos[int(id)] = i
	}
	var cands []batch.CandidatePair
	var buf []index.Candidate
	for j := lo; j < hi; j++ {
		buf = probe(int(ids[j]), buf)
		for _, cd := range buf {
			if i, ok := pos[cd.ID]; ok {
				cands = append(cands, batch.CandidatePair{I: i, J: j, LB: cd.LB})
			}
		}
	}
	return cands
}

// resolveMode picks the generator IndexAuto stands for (any other mode
// is returned as is): enumeration when tau is too large for any
// signature to prune, otherwise the best maintained index (histogram
// first — cheaper probes — then pq-gram), otherwise the histogram
// default of batch.JoinIndexed.
func (c *Corpus) resolveMode(ps []*batch.PreparedTree, tau float64, mode batch.IndexMode) batch.IndexMode {
	if mode != batch.IndexAuto {
		return mode
	}
	if math.IsInf(tau, 1) {
		return batch.IndexEnumerate
	}
	maxLen := 0
	for _, p := range ps {
		if p.Len() > maxLen {
			maxLen = p.Len()
		}
	}
	if tau >= float64(maxLen) {
		return batch.IndexEnumerate
	}
	if c.hist == nil && c.pq != nil {
		return batch.IndexPQGram
	}
	return batch.IndexHistogram
}

func (c *Corpus) toMatches(ids []ID, ms []batch.Match) []Match {
	out := make([]Match, len(ms))
	for k, m := range ms {
		out[k] = Match{I: ids[m.I], J: ids[m.J], Dist: m.Dist}
	}
	return out
}

// CrossMatch is one result of TopKAcross: the subtree rooted at
// postorder id Root of the stored tree Tree, at edit distance Dist from
// the query.
type CrossMatch struct {
	Tree ID
	Root int
	Dist float64
}

// TopKAcross finds the k subtrees closest to query across every stored
// tree, on engine e (corpus-attached). Stored trees hydrate from their
// artifacts; the query is prepared fresh. Semantics are those of
// batch.Engine.TopKAcross: results sorted by distance, ties toward
// smaller (Tree, Root), and each GTED run bounded by the running k-th
// best distance.
func (c *Corpus) TopKAcross(e *batch.Engine, query *batch.PreparedTree, k int) ([]CrossMatch, batch.Stats) {
	c.checkEngine(e)
	ids, ps := c.snapshotPrepared(e, nil)
	ms, st := e.TopKAcross(query, ps, k)
	out := make([]CrossMatch, len(ms))
	for i, m := range ms {
		out[i] = CrossMatch{Tree: ids[m.Tree], Root: m.Root, Dist: m.Dist}
	}
	return out, st
}
