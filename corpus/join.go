package corpus

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"repro/batch"
	"repro/index"
	"repro/internal/tree"
)

// Match is one similarity-join result: the trees stored under IDs I and
// J (I < J) are at edit distance Dist < tau (for a pair accepted by the
// upper-bound filter, Dist is that upper bound, still below tau).
type Match struct {
	I, J ID
	Dist float64
}

// Join computes the similarity self-join of the corpus on engine e, under
// context.Background(): all unordered ID pairs at edit distance below
// tau. The engine must be corpus-attached (Corpus.Engine); every stored
// tree is prepared from its label ids, not re-interned.
//
// Candidate generation follows opts.Mode. An index mode probes the
// corpus's maintained index when it keeps the selected one
// (WithHistogramIndex / WithPQGramIndex) — its maintained posting
// lists, no per-call build — and otherwise a throwaway index
// built over this call's snapshot; IndexEnumerate visits every pair, and
// IndexAuto picks (see resolveMode). The candidates run through
// batch.Engine.JoinCandidatesStream's filters. The match set is
// identical in every mode; under a non-unit cost model only unfiltered
// enumeration is available and opts.Mode is ignored.
//
// Results are deterministic and ordered by (I, J) — assuming no
// concurrent Add/Delete/Replace; mutations during a join are safe and
// the join reflects one consistent snapshot: the prepared trees and the
// maintained-index probes are captured under a single lock acquisition,
// so a Replace landing mid-join cannot suppress candidates for trees
// the snapshot still holds in their old form.
func (c *Corpus) Join(e *batch.Engine, tau float64, opts batch.JoinOptions) ([]Match, batch.JoinStats) {
	var ms []Match
	st, _ := c.join(context.Background(), e, tau, opts, 0, math.MaxInt, func(m Match) { ms = append(ms, m) })
	slices.SortFunc(ms, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	return ms, st
}

// JoinRangeStream is the streaming Join over a probe range: every match
// (I, J), I < J, whose J sits at a position in [lo, hi) of the
// ascending-ID snapshot taken by this call is passed to emit as soon as
// its pair resolves on the worker pool, instead of being buffered into
// a slice. Candidate generation, mode resolution and snapshot
// consistency are Join's, so over a partition of [0, n) — or with the
// whole range [0, math.MaxInt) — the emitted matches, each Dist
// included, are Join's result at every tau, enumerate and indexed modes
// alike. emit runs on the calling goroutine, one invocation at a time,
// in completion order. Cancelling ctx stops the engine work inside the
// pair (a stopped pair emits nothing) and returns ctx's error; the
// returned stats then cover only the work actually done. It serves a
// server's join, ranged (see server.Range) or whole, and requires the
// unit cost model, like every filtered join.
//
// Ranges computed elsewhere mean the same trees here only when both
// corpora hold the same contents (see Fingerprint).
func (c *Corpus) JoinRangeStream(ctx context.Context, e *batch.Engine, tau float64, opts batch.JoinOptions, lo, hi int, emit func(Match)) (batch.JoinStats, error) {
	if !e.UnitCost() {
		panic("corpus: JoinRangeStream requires the unit cost model")
	}
	return c.join(ctx, e, tau, opts, lo, hi, emit)
}

// join is the one join behind Join and JoinRangeStream: the
// matches whose probe position falls in [lo, hi) of the snapshot, passed
// to emit as found. It snapshots the corpus, resolves the mode once, and
// takes candidates from the maintained index if the corpus keeps the
// selected one, else from a throwaway index over the snapshot, else from
// enumeration. A full-range enumeration — and any join under a non-unit
// cost model, which can only run unfiltered — goes to
// batch.Engine.JoinStream, which needs no candidate list.
func (c *Corpus) join(ctx context.Context, e *batch.Engine, tau float64, opts batch.JoinOptions, lo, hi int, emit func(Match)) (batch.JoinStats, error) {
	c.checkEngine(e)
	var (
		mode      batch.IndexMode
		ix        candidateIndex
		cands     []batch.CandidatePair
		indexTime time.Duration
	)
	ids, ps := c.snapshotPrepared(e, func(ids []ID, ps []*batch.PreparedTree) {
		lo, hi = clampRange(lo, hi, len(ids))
		if !e.UnitCost() {
			return
		}
		// Mode resolution and maintained-index probes run under the same
		// lock as the snapshot, so the candidates describe exactly the
		// trees being joined.
		mode = c.resolveMode(ps, tau, opts.Mode)
		if ix = c.maintained(mode, opts); ix != nil {
			start := time.Now()
			cands = probe(ix, tau, ids, lo, hi)
			indexTime = time.Since(start)
		}
	})
	emitID := func(m batch.Match) { emit(Match{I: ids[m.I], J: ids[m.J], Dist: m.Dist}) }
	switch {
	case !e.UnitCost():
		return e.JoinStream(ctx, ps, tau, false, emitID)
	case mode == batch.IndexEnumerate && lo == 0 && hi == len(ids):
		return e.JoinStream(ctx, ps, tau, true, emitID)
	case mode == batch.IndexEnumerate:
		for j := lo; j < hi; j++ {
			for i := 0; i < j; i++ {
				cands = append(cands, batch.CandidatePair{I: i, J: j})
			}
		}
	case ix == nil:
		start := time.Now()
		cands = probe(throwaway(c.labels, ps, mode, opts.Q), tau, nil, lo, hi)
		indexTime = time.Since(start)
	}
	st, err := e.JoinCandidatesStream(ctx, ps, cands, tau, emitID)
	st.Mode = mode
	st.IndexTime = indexTime
	st.Elapsed += indexTime
	return st, err
}

// clampRange clips [lo, hi) to the positions [0, n), empty when the
// range misses them.
func clampRange(lo, hi, n int) (int, int) {
	lo = min(max(lo, 0), n)
	return lo, min(max(hi, lo), n)
}

// resolveMode picks the generator IndexAuto stands for (any other mode
// is returned as is): enumeration when tau is too large for any
// signature to prune — once tau reaches the largest tree size, even the
// strongest signature bound (max of the sizes) stays below tau for every
// pair — otherwise the best maintained index (histogram first — cheaper
// probes — then pq-gram), otherwise a throwaway histogram index.
func (c *Corpus) resolveMode(ps []*batch.PreparedTree, tau float64, mode batch.IndexMode) batch.IndexMode {
	if mode != batch.IndexAuto {
		return mode
	}
	maxLen := 0
	for _, p := range ps {
		maxLen = max(maxLen, p.Len())
	}
	if tau >= float64(maxLen) { // +Inf included
		return batch.IndexEnumerate
	}
	if c.hist == nil && c.pq != nil {
		return batch.IndexPQGram
	}
	return batch.IndexHistogram
}

// candidateIndex is an index a join builds or probes: index.Histogram
// or index.PQGram.
type candidateIndex interface {
	Add(t *tree.Tree) int
	CandidatesBelow(q int, tau float64, dst []index.Candidate) []index.Candidate
}

// maintained returns the maintained index that serves mode, or nil when
// none does. An auto-resolved pq-gram mode takes the maintained index at
// whatever base length it was built with (any (1, q) generator is
// complete); an explicit IndexPQGram request honors opts.Q (default 2).
// The caller holds the corpus lock.
func (c *Corpus) maintained(mode batch.IndexMode, opts batch.JoinOptions) candidateIndex {
	switch {
	case mode == batch.IndexHistogram && c.hist != nil:
		return c.hist
	case mode == batch.IndexPQGram && c.pq != nil && (opts.Mode == batch.IndexAuto || c.pq.Q() == pqBase(opts.Q)):
		return c.pq
	}
	return nil
}

// throwaway builds the index mode selects over the snapshot, keyed by
// snapshot position, on the label table the snapshot's trees are on.
func throwaway(tab *tree.LabelTable, ps []*batch.PreparedTree, mode batch.IndexMode, q int) candidateIndex {
	var ix candidateIndex = index.NewHistogram(tab)
	if mode == batch.IndexPQGram {
		ix = index.NewPQGram(tab, pqBase(q))
	}
	for _, p := range ps {
		ix.Add(p.Tree())
	}
	return ix
}

// pqBase is the pq-gram base length a join option asks for.
func pqBase(q int) int {
	if q <= 0 {
		return 2
	}
	return q
}

// probe returns the candidate pairs, by snapshot position, of the probe
// positions [lo, hi). ids maps positions to the index's tree ids — the
// stored IDs of a maintained index, whose tombstoned postings of deleted
// trees are skipped — or is nil for an index keyed by position.
func probe(ix candidateIndex, tau float64, ids []ID, lo, hi int) []batch.CandidatePair {
	var pos map[int]int
	if ids != nil {
		pos = make(map[int]int, len(ids))
		for i, id := range ids {
			pos[int(id)] = i
		}
	}
	var cands []batch.CandidatePair
	var buf []index.Candidate
	for j := lo; j < hi; j++ {
		q := j
		if ids != nil {
			q = int(ids[j])
		}
		buf = ix.CandidatesBelow(q, tau, buf)
		for _, cd := range buf {
			i, ok := cd.ID, true
			if ids != nil {
				i, ok = pos[cd.ID]
			}
			if ok {
				cands = append(cands, batch.CandidatePair{I: i, J: j, LB: cd.LB})
			}
		}
	}
	return cands
}
