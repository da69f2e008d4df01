package batch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/index"
	"repro/internal/bounds"
)

// Match is one similarity-join result: trees at indices I and J of the
// input collection (I < J) with edit distance below the threshold. For a
// pair accepted by the upper-bound filter, Dist is the constrained upper
// bound (≥ the true distance, still below the threshold).
type Match struct {
	I, J int
	Dist float64
}

// IndexMode selects how JoinIndexed generates candidate pairs.
type IndexMode int

const (
	// IndexAuto picks for the workload: full enumeration when the
	// threshold is so large that an index could not prune (tau reaches
	// the largest tree size), the histogram index otherwise.
	IndexAuto IndexMode = iota
	// IndexEnumerate disables candidate generation: all pairs are
	// visited and the bound filters do every rejection (the behavior of
	// the filtered Join).
	IndexEnumerate
	// IndexHistogram generates candidates from the label-histogram
	// inverted index (index.Histogram): only pairs whose label-multiset
	// lower bound stays below tau are visited.
	IndexHistogram
	// IndexPQGram generates candidates from the (1,q)-gram inverted
	// index (index.PQGram): only pairs sharing structure — at least one
	// pq-gram, or the provably-required small-tree fringe — are visited.
	// (The index also scores candidates by pq-gram distance; a batch
	// join evaluates every candidate anyway, so the ranking is exposed
	// on index.PQGram for order-sensitive workloads, not used here.)
	IndexPQGram
)

func (m IndexMode) String() string {
	switch m {
	case IndexAuto:
		return "auto"
	case IndexEnumerate:
		return "enumerate"
	case IndexHistogram:
		return "histogram"
	case IndexPQGram:
		return "pqgram"
	}
	return fmt.Sprintf("IndexMode(%d)", int(m))
}

// JoinOptions configures JoinIndexed.
type JoinOptions struct {
	// Mode selects the candidate generator (default IndexAuto).
	Mode IndexMode
	// Q is the pq-gram base length for IndexPQGram (default 2). The
	// index always uses stems of length p = 1, the only parameterization
	// whose candidate generation is provably complete (see package
	// index); the stem-structure sensitivity of larger p is available
	// through index.PQGram directly, for workloads that tolerate
	// approximate joins.
	Q int
}

// JoinStats reports the cost and filter accounting of one Join or
// JoinIndexed call.
type JoinStats struct {
	// Comparisons is the number of candidate pairs considered: all
	// unordered pairs for enumerating joins, the generated candidates
	// for indexed joins.
	Comparisons int
	// Subproblems totals the paper's cost measure over the exact
	// distance computations.
	Subproblems int64
	// Filter accounting (filtered joins only): pairs rejected because a
	// lower bound reached the threshold, accepted because the
	// constrained upper bound stayed below it, and resolved exactly.
	LowerPruned   int
	UpperAccepted int
	ExactComputed int
	// PrunedSubproblems counts the DP cells the cutoff-seeded exact stage
	// skipped (filtered joins thread tau into GTED as a cutoff),
	// including the size-product lower bound for keyroot subproblems the
	// band refused wholesale.
	PrunedSubproblems int64
	// BandSkippedCells counts cells the structural band skipped as whole
	// loop ranges during the exact stage (gted.Stats.BandSkippedCells).
	BandSkippedCells int64
	// PrunedKeyroots counts keyroot subproblem DPs the keyroot-level
	// band skipped entirely during the exact stage.
	PrunedKeyroots int64
	// CompressedRows counts DP rows the exact stage materialized in
	// band-compressed form, and RowCells the row cells materialized in
	// total (×8 = bytes of row storage streamed); see gted.Stats.
	CompressedRows int64
	RowCells       int64
	Elapsed        time.Duration

	// Indexed joins only: the candidate generator that actually ran
	// (IndexAuto resolves before running) and the time spent building
	// and probing the index.
	Mode      IndexMode
	IndexTime time.Duration
}

// Merge folds another call's accounting into s — the coordinator path
// of a distributed join, where each worker evaluates a disjoint range
// of the pair space and the summed counters must equal a single-node
// run's (so /v1/stats stays truthful about work actually done). Every
// additive counter sums; Elapsed and IndexTime take the maximum (the
// ranges run concurrently, so wall-clock is the slowest worker, and the
// caller typically overwrites Elapsed with its own measured wall time);
// Mode keeps s's value unless unset.
func (s *JoinStats) Merge(o JoinStats) {
	s.Comparisons += o.Comparisons
	s.Subproblems += o.Subproblems
	s.LowerPruned += o.LowerPruned
	s.UpperAccepted += o.UpperAccepted
	s.ExactComputed += o.ExactComputed
	s.PrunedSubproblems += o.PrunedSubproblems
	s.BandSkippedCells += o.BandSkippedCells
	s.PrunedKeyroots += o.PrunedKeyroots
	s.CompressedRows += o.CompressedRows
	s.RowCells += o.RowCells
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
	if o.IndexTime > s.IndexTime {
		s.IndexTime = o.IndexTime
	}
	if s.Mode == IndexAuto && o.Mode != IndexAuto {
		s.Mode = o.Mode
	}
}

// joinOutcome is the per-pair record a worker writes; aggregation
// happens sequentially afterwards so the output is deterministic.
type joinOutcome struct {
	dist   float64
	subs   int64
	pruned int64
	band   int64
	kroots int64
	crows  int64
	rcells int64
	kind   pairKind
}

// pairKind is how the join pipeline resolved a pair.
type pairKind uint8

const (
	pairPending       pairKind = iota // not evaluated: the join was cancelled first
	pairExact                         // GTED ran
	pairLowerPruned                   // a lower bound reached tau
	pairUpperAccepted                 // the constrained distance stayed below tau
)

// tally folds one pair's outcome into s and reports whether the pair
// matches.
func (s *JoinStats) tally(o joinOutcome, tau float64, filtered bool) bool {
	if o.kind == pairPending {
		return false
	}
	s.Comparisons++
	switch o.kind {
	case pairLowerPruned:
		s.LowerPruned++
		return false
	case pairUpperAccepted:
		s.UpperAccepted++
		return true
	}
	if filtered {
		s.ExactComputed++
	}
	s.Subproblems += o.subs
	s.PrunedSubproblems += o.pruned
	s.BandSkippedCells += o.band
	s.PrunedKeyroots += o.kroots
	s.CompressedRows += o.crows
	s.RowCells += o.rcells
	return o.dist < tau
}

// ij names one candidate pair by collection indices, i < j. lb carries
// the candidate's index lower bound (zero for enumerated pairs), folded
// into the filter pipeline.
type ij struct {
	i, j int
	lb   float64
}

// Join computes the similarity self-join of the collection: all pairs
// with edit distance below tau. Pairs are evaluated on the worker pool;
// the result is deterministic and ordered by (I, J).
//
// With filtered set, each pair runs the bound filters in cost order (see
// filterPair): the size and label-histogram lower bounds reject, then
// the constrained upper bound, banded by tau, accepts a pair whose bound
// stays below tau (reported with that bound as its distance), then the
// remaining profiled lower bounds reject; only the undecided middle runs
// the exact algorithm. The match set is identical to the unfiltered
// join's. Filtering requires the unit cost model.
//
// Join visits every pair. For large corpora with selective thresholds,
// JoinIndexed generates candidate pairs from an inverted index instead.
func (e *Engine) Join(trees []*PreparedTree, tau float64, filtered bool) ([]Match, JoinStats) {
	ms, st, _ := e.JoinContext(context.Background(), trees, tau, filtered)
	return ms, st
}

// JoinContext is Join with cancellation. Workers check ctx at every pair
// boundary; once it is cancelled they abandon the remaining pairs and
// the call returns nil matches, the stats of the pairs evaluated so far
// (Comparisons counts those, not the planned ones) and ctx's error.
// JoinIndexedContext and JoinCandidatesContext follow the same contract.
func (e *Engine) JoinContext(ctx context.Context, trees []*PreparedTree, tau float64, filtered bool) ([]Match, JoinStats, error) {
	e.check(trees...)
	if filtered && !e.unit {
		panic("batch: filtered Join requires the unit cost model")
	}
	start := time.Now()
	ms, st, err := e.evalPairs(ctx, trees, allPairs(len(trees)), tau, filtered)
	st.Mode = IndexEnumerate
	st.Elapsed = time.Since(start)
	return ms, st, err
}

// allPairs enumerates the unordered pairs of an n-tree collection in
// (I, J) order.
func allPairs(n int) []ij {
	pairs := make([]ij, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, ij{i: i, j: j})
		}
	}
	return pairs
}

// JoinIndexed computes the same similarity self-join as the filtered
// Join — the match set is provably identical — but generates candidate
// pairs from an inverted index over the corpus instead of enumerating
// all O(n²) pairs. Candidates then flow through the existing pipeline:
// the index's own lower bound has already pruned them once and is
// carried into the filters; the size and label-histogram bounds, the
// tau-banded constrained upper bound and — for pairs it leaves
// undecided — the remaining profiled lower bounds decide most of the
// rest, and only the undecided middle runs exact GTED on the worker pool.
//
// JoinIndexed requires the unit cost model (the model of every published
// bound). Results are deterministic and ordered by (I, J).
func (e *Engine) JoinIndexed(trees []*PreparedTree, tau float64, opts JoinOptions) ([]Match, JoinStats) {
	ms, st, _ := e.JoinIndexedContext(context.Background(), trees, tau, opts)
	return ms, st
}

// JoinIndexedContext is JoinIndexed with cancellation, under
// JoinContext's contract.
func (e *Engine) JoinIndexedContext(ctx context.Context, trees []*PreparedTree, tau float64, opts JoinOptions) ([]Match, JoinStats, error) {
	e.check(trees...)
	if !e.unit {
		panic("batch: JoinIndexed requires the unit cost model")
	}
	mode := resolveMode(trees, tau, opts.Mode)
	if mode == IndexEnumerate {
		return e.JoinContext(ctx, trees, tau, true)
	}

	start := time.Now()
	pairs, indexTime := generate(trees, tau, mode, opts)
	ms, st, err := e.evalPairs(ctx, trees, pairs, tau, true)
	st.Mode = mode
	st.IndexTime = indexTime
	st.Elapsed = time.Since(start)
	return ms, st, err
}

// resolveMode picks the generator IndexAuto stands for: the histogram
// index when an index can prune at tau, enumeration otherwise.
func resolveMode(trees []*PreparedTree, tau float64, mode IndexMode) IndexMode {
	if mode != IndexAuto {
		return mode
	}
	if indexablePrunes(trees, tau) {
		return IndexHistogram
	}
	return IndexEnumerate
}

// CandidatePair names one externally generated candidate pair by
// collection indices (I < J), with LB a valid lower bound on the pair's
// distance (0 when unknown). It is the currency of JoinCandidates.
type CandidatePair struct {
	I, J int
	LB   float64
}

// JoinCandidates runs the filtered join pipeline over candidate pairs
// the caller generated — a corpus probing its own persistent sharded
// indexes, or a distributed driver that owns a shard of the pair space —
// instead of pairs this engine enumerated or indexed itself. Candidates
// flow through the same filters as JoinIndexed (the carried LB with the
// size and label-histogram bounds, the tau-banded constrained upper
// bound, the remaining profiled lower bounds, cutoff-seeded exact GTED),
// so the matches among the candidates are exactly the candidates at
// distance < tau. Requires the unit cost model. Results are
// deterministic and ordered by (I, J).
func (e *Engine) JoinCandidates(trees []*PreparedTree, cands []CandidatePair, tau float64) ([]Match, JoinStats) {
	ms, st, _ := e.JoinCandidatesContext(context.Background(), trees, cands, tau)
	return ms, st
}

// JoinCandidatesContext is JoinCandidates with cancellation, under
// JoinContext's contract.
func (e *Engine) JoinCandidatesContext(ctx context.Context, trees []*PreparedTree, cands []CandidatePair, tau float64) ([]Match, JoinStats, error) {
	e.check(trees...)
	if !e.unit {
		panic("batch: JoinCandidates requires the unit cost model")
	}
	start := time.Now()
	ms, st, err := e.evalPairs(ctx, trees, candidatePairs(trees, cands), tau, true)
	st.Mode = IndexEnumerate
	st.Elapsed = time.Since(start)
	return ms, st, err
}

// candidatePairs validates the caller's candidates against the
// collection and orders them by (I, J).
func candidatePairs(trees []*PreparedTree, cands []CandidatePair) []ij {
	pairs := make([]ij, len(cands))
	for k, c := range cands {
		i, j := c.I, c.J
		if i > j {
			i, j = j, i
		}
		if i < 0 || j >= len(trees) || i == j {
			panic(fmt.Sprintf("batch: candidate pair (%d, %d) outside the %d-tree collection", c.I, c.J, len(trees)))
		}
		pairs[k] = ij{i: i, j: j, lb: c.LB}
	}
	sortPairs(pairs)
	return pairs
}

// sortPairs orders pairs by (I, J), the join's result order.
func sortPairs(pairs []ij) {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
}

// indexablePrunes reports whether an index can reject anything at this
// threshold: once tau reaches the largest tree size, even the strongest
// signature bound (max of the sizes) stays below tau for every pair, so
// generation would reproduce full enumeration with extra steps.
func indexablePrunes(trees []*PreparedTree, tau float64) bool {
	if math.IsInf(tau, 1) {
		return false
	}
	maxLen := 0
	for _, t := range trees {
		if t.Len() > maxLen {
			maxLen = t.Len()
		}
	}
	return tau < float64(maxLen)
}

// generate builds the selected index over the corpus and probes it once
// per tree, producing the candidate pairs in (I, J) order.
func generate(trees []*PreparedTree, tau float64, mode IndexMode, opts JoinOptions) ([]ij, time.Duration) {
	start := time.Now()
	var probe func(q int, buf []index.Candidate) []index.Candidate
	switch mode {
	case IndexHistogram:
		ix := index.NewHistogram()
		for _, t := range trees {
			ix.Add(t.Tree())
		}
		probe = func(q int, buf []index.Candidate) []index.Candidate {
			return ix.CandidatesBelow(q, tau, buf)
		}
	case IndexPQGram:
		q := opts.Q
		if q <= 0 {
			q = 2
		}
		ix := index.NewPQGram(1, q)
		for _, t := range trees {
			ix.Add(t.Tree())
		}
		probe = func(q int, buf []index.Candidate) []index.Candidate {
			return ix.CandidatesBelow(q, tau, buf)
		}
	default:
		panic(fmt.Sprintf("batch: cannot generate candidates for mode %v", mode))
	}
	var pairs []ij
	var buf []index.Candidate
	for j := 1; j < len(trees); j++ {
		buf = probe(j, buf)
		for _, c := range buf {
			pairs = append(pairs, ij{i: c.ID, j: j, lb: c.LB})
		}
	}
	// Probing yields (J, I)-major order; the join contract is (I, J).
	sortPairs(pairs)
	return pairs, time.Since(start)
}

// filterPair resolves one pair of a join: exact GTED when unfiltered;
// otherwise the filter stages in cost order, each run only when the
// cheaper ones left the pair undecided:
//
//  1. the candidate's carried lower bound and the size bound, O(1);
//  2. the label-histogram lower bound, one merge of sorted label ids;
//  3. the constrained distance banded by tau (bounds.ConstrainedBelow),
//     which accepts the pair when it stays below tau;
//  4. the remaining profiled lower bounds (binary branch, string edit),
//     which reject it when they reach tau;
//  5. GTED with tau as its cutoff.
//
// The order decides nothing: every lower bound is ≤ TED ≤ the
// constrained distance, so an accepted pair could never have been
// rejected, and each pair is lower-pruned, upper-accepted or exact
// exactly as it would be with all lower bounds first. Only the cost
// moves. Unrelated trees of similar size mostly fall to the label bound
// before the banded DP, which still fills a cell for every pair of
// small subtrees (leaves pair with leaves whatever tau is); a pair the
// upper bound accepts skips the O(|F|·|G|) lower bounds and, on a warm
// workspace, allocates nothing.
func (e *Engine) filterPair(ws *workspace, f, g *PreparedTree, candLB, tau float64, filtered bool) joinOutcome {
	if !filtered {
		r := e.pairRunner(ws, f, g)
		d := r.Run()
		gst := r.Stats()
		return joinOutcome{dist: d, subs: gst.Subproblems, rcells: gst.RowCells, kind: pairExact}
	}
	lb := bounds.Size(f.t, g.t)
	if candLB > lb {
		lb = candLB // index candidates carry their own lower bound
	}
	if lb >= tau {
		return joinOutcome{dist: lb, kind: pairLowerPruned}
	}
	if p := bounds.LabelHistogramProfiled(f.profile(), g.profile()); p > lb {
		lb = p
	}
	if lb >= tau {
		return joinOutcome{dist: lb, kind: pairLowerPruned}
	}
	if ub, ok := bounds.ConstrainedBelow(f.t, g.t, tau, &ws.constrained); ok {
		return joinOutcome{dist: ub, kind: pairUpperAccepted}
	}
	if p := bounds.LowerProfiled(f.profile(), g.profile()); p > lb {
		lb = p
	}
	if lb >= tau {
		return joinOutcome{dist: lb, kind: pairLowerPruned}
	}
	r := e.pairRunner(ws, f, g)
	d, ok := r.RunBounded(tau)
	if !ok {
		d = tau // below-threshold match impossible; tau is a valid floor
	}
	gst := r.Stats()
	return joinOutcome{dist: d, subs: gst.Subproblems, pruned: gst.PrunedSubproblems,
		band: gst.BandSkippedCells, kroots: gst.PrunedKeyroots,
		crows: gst.CompressedRows, rcells: gst.RowCells, kind: pairExact}
}

// evalPairs runs filterPair over the worker pool and aggregates the
// outcomes deterministically. A worker that finds ctx cancelled leaves
// its remaining pairs pending; the call then returns nil matches, the
// stats of the evaluated pairs and ctx's error.
//
// Filtered joins seed the exact stage with the threshold: GTED runs with
// cutoff tau threaded into its DP loops, so a pair whose distance
// provably reaches tau abandons most of its DP instead of finishing it.
// The match set is provably unchanged — a pair with distance < tau
// always completes exactly, and any pair the cutoff abandons could not
// have matched.
func (e *Engine) evalPairs(ctx context.Context, trees []*PreparedTree, pairs []ij, tau float64, filtered bool) ([]Match, JoinStats, error) {
	outcomes := make([]joinOutcome, len(pairs))
	e.parallel(len(pairs), func(ws *workspace, k int) {
		if ctx.Err() != nil {
			return
		}
		p := pairs[k]
		outcomes[k] = e.filterPair(ws, trees[p.i], trees[p.j], p.lb, tau, filtered)
	})

	var ms []Match
	var st JoinStats
	for k, o := range outcomes {
		if st.tally(o, tau, filtered) {
			ms = append(ms, Match{I: pairs[k].i, J: pairs[k].j, Dist: o.dist})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	return ms, st, nil
}
