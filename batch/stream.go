package batch

import (
	"context"
	"time"
)

// This file holds the join evaluators: matches are handed to the caller
// as they are found instead of buffered into a slice, and a context
// threads cancellation through the worker pool into the kernel — the
// engine side of a server streaming NDJSON to a client that may
// disconnect mid-response. A caller that wants the matches in order
// sorts them (ted.Join and corpus.Corpus.Join sort by (I, J)).
//
// Contracts shared by both:
//
//   - emit runs on the calling goroutine, one invocation at a time, in
//     completion order (nondeterministic across runs). Run to
//     completion, the emitted multiset is the join's match set; only
//     the order differs.
//   - Cancelling ctx stops the work inside the pair: every running GTED
//     stops at its next single-path call, keyroot or chain state
//     (gted.Runner), the pair it was evaluating emits nothing, the
//     remaining pairs are abandoned, and the call returns ctx's error.
//     The returned stats then cover only the work actually done
//     (JoinStats.Comparisons counts the pairs started, not planned
//     ones).

// JoinStream computes the similarity self-join of the collection: every
// pair with edit distance below tau is passed to emit as soon as it
// resolves. See the contracts above.
//
// With filtered set, each pair runs the bound filters in cost order (see
// filterPair): the size and label-histogram lower bounds reject, then
// the constrained upper bound, banded by tau, accepts a pair whose bound
// stays below tau (reported with that bound as its distance), then the
// remaining profiled lower bounds reject; only the undecided middle runs
// the exact algorithm. The match set is identical to the unfiltered
// join's. Filtering requires the unit cost model.
//
// JoinStream visits every pair. For large corpora with selective
// thresholds, corpus.Corpus.Join generates candidate pairs from an
// inverted index and evaluates them with JoinCandidatesStream.
func (e *Engine) JoinStream(ctx context.Context, trees []*PreparedTree, tau float64, filtered bool, emit func(Match)) (JoinStats, error) {
	e.check(trees...)
	if filtered && !e.unit {
		panic("batch: filtered JoinStream requires the unit cost model")
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
// JoinStream (the carried LB with the size and label-histogram bounds,
// the tau-banded constrained upper bound, the remaining profiled lower
// bounds, cutoff-seeded exact GTED), so the matches among the
// candidates are exactly the candidates at distance < tau, passed to
// emit as found. Requires the unit cost model. See the contracts above.
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
