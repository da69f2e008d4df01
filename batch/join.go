package batch

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/gted"
)

// Match is one similarity-join result: trees at indices I and J of the
// input collection (I < J) with edit distance below the threshold. For a
// pair accepted by the upper-bound filter, Dist is the constrained upper
// bound (≥ the true distance, still below the threshold).
type Match struct {
	I, J int
	Dist float64
}

// IndexMode selects how a join generates candidate pairs. Engines
// evaluate the pairs they are given (JoinStream enumerates,
// JoinCandidatesStream takes the caller's); package corpus decides which
// pairs a mode yields.
type IndexMode int

const (
	// IndexAuto picks for the workload: full enumeration when the
	// threshold is so large that an index could not prune (tau reaches
	// the largest tree size), an index otherwise.
	IndexAuto IndexMode = iota
	// IndexEnumerate disables candidate generation: all pairs are
	// visited and the bound filters do every rejection (the behavior of
	// the filtered JoinStream).
	IndexEnumerate
	// IndexHistogram generates candidates from the label-histogram
	// inverted index (index.Histogram): only pairs whose label-multiset
	// lower bound stays below tau are visited.
	IndexHistogram
	// IndexPQGram generates candidates from the (1,q)-gram inverted
	// index (index.PQGram): only pairs sharing structure — at least one
	// pq-gram, or the provably-required small-tree fringe — are visited.
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

// ParseIndexMode maps a mode name to its IndexMode, ignoring case: the
// names String returns, the aliases "enum", "hist" and "pq", and "" for
// IndexAuto.
func ParseIndexMode(s string) (IndexMode, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return IndexAuto, nil
	case "enumerate", "enum":
		return IndexEnumerate, nil
	case "histogram", "hist":
		return IndexHistogram, nil
	case "pqgram", "pq":
		return IndexPQGram, nil
	}
	return 0, fmt.Errorf("unknown mode %q (auto | enumerate | histogram | pqgram)", s)
}

// JoinOptions configures an indexed join (corpus.Corpus.Join).
type JoinOptions struct {
	// Mode selects the candidate generator (default IndexAuto).
	Mode IndexMode
	// Q is the pq-gram base length for IndexPQGram (default 2). The
	// index always uses stems of length p = 1, the only parameterization
	// whose candidate generation is provably complete (see package
	// index).
	Q int
}

// JoinStats reports the cost and filter accounting of one join.
type JoinStats struct {
	// Comparisons is the number of candidate pairs considered: all
	// unordered pairs for enumerating joins, the generated candidates
	// for indexed joins.
	Comparisons int
	// Filter accounting (filtered joins only): pairs rejected because a
	// lower bound reached the threshold, accepted because the
	// constrained upper bound stayed below it, and resolved exactly.
	LowerPruned   int
	UpperAccepted int
	ExactComputed int
	// Counters sums the kernel counters of the exact distance
	// computations; filtered joins thread tau into GTED as a cutoff, so
	// their pruning counters show what the cutoff skipped.
	gted.Counters
	Elapsed time.Duration

	// Indexed joins only: the candidate generator that actually ran
	// (IndexAuto resolves before running) and the time spent building
	// and probing the index.
	Mode      IndexMode
	IndexTime time.Duration
}

// Merge folds another call's accounting into s — the gateway path of a
// distributed join, where each worker evaluates a disjoint range
// of the pair space and the summed counters must equal a single-node
// run's (so /v1/stats stays truthful about work actually done), and the
// path that combines the worker pool's per-worker tallies. Every
// additive counter sums and MaxLiveRows takes the maximum (see
// gted.Counters.Merge); Elapsed and IndexTime take the maximum (the
// ranges run concurrently, so wall-clock is the slowest worker, and the
// caller typically overwrites Elapsed with its own measured wall time);
// Mode keeps s's value unless unset.
func (s *JoinStats) Merge(o JoinStats) {
	s.Comparisons += o.Comparisons
	s.LowerPruned += o.LowerPruned
	s.UpperAccepted += o.UpperAccepted
	s.ExactComputed += o.ExactComputed
	s.Counters.Merge(o.Counters)
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

// ij names one candidate pair by collection indices, i < j. lb carries
// the candidate's index lower bound (zero for enumerated pairs), folded
// into the filter pipeline.
type ij struct {
	i, j int
	lb   float64
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

// CandidatePair names one externally generated candidate pair by
// collection indices (I < J), with LB a valid lower bound on the pair's
// distance (0 when unknown). It is the currency of JoinCandidatesStream.
type CandidatePair struct {
	I, J int
	LB   float64
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
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	return pairs
}

// filterPair resolves one pair of a join, tallies it into st and
// reports its distance (for a pair a bound decided, that bound) and
// whether it matches, that is stays below tau: exact GTED when
// unfiltered; otherwise the filter stages in cost order, each run only
// when the cheaper ones left the pair undecided:
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
//
// The exact stage of a filtered join is a bounded run at tau
// (runBounded): the root check refuses a pair whose size or height
// offset alone prices it above tau, and any other pair's DP skips every
// cell whose forest sizes prove it above tau. The match set is provably
// unchanged — every value at most tau is computed exactly, so a pair
// with distance < tau still comes out exact, and a pair the cutoff
// saturates could not have matched.
func (e *Engine) filterPair(ws *workspace, st *JoinStats, f, g *PreparedTree, candLB, tau float64, filtered bool) (float64, bool) {
	st.Comparisons++
	if !filtered {
		r := e.pairRunner(ws, f, g)
		d := r.Run()
		st.Counters.Merge(r.Stats())
		return d, d < tau
	}
	lb := bounds.Size(f.t, g.t)
	if candLB > lb {
		lb = candLB // index candidates carry their own lower bound
	}
	if lb >= tau {
		st.LowerPruned++
		return lb, false
	}
	if p := bounds.LabelHistogramProfiled(f.prof, g.prof); p > lb {
		lb = p
	}
	if lb >= tau {
		st.LowerPruned++
		return lb, false
	}
	if ub, ok := bounds.ConstrainedBelow(f.t, g.t, tau, &ws.constrained); ok {
		st.UpperAccepted++
		return ub, true
	}
	if p := bounds.LowerProfiled(f.prof, g.prof); p > lb {
		lb = p
	}
	if lb >= tau {
		st.LowerPruned++
		return lb, false
	}
	st.ExactComputed++
	d, ok, rs := e.runBounded(ws, f, g, tau)
	st.Counters.Merge(rs)
	return d, ok && d < tau
}

// joinPairs is the join evaluator behind JoinStream and
// JoinCandidatesStream: workers pull pairs off a shared counter, resolve
// each with filterPair into a JoinStats of their own, and send only the
// matches to the calling goroutine, which passes them to emit in
// completion order. One stop flag (stopOn) serves the call: every
// worker's runners poll it, and a worker reads it after each pair, so
// cancellation stops each worker inside the pair it runs, discards that
// pair unemitted and abandons the rest; the call then returns ctx's
// error. Either way the returned stats merge the workers' tallies, so
// they cover exactly the work done.
func (e *Engine) joinPairs(ctx context.Context, trees []*PreparedTree, pairs []ij, tau float64, filtered bool, emit func(Match)) (JoinStats, error) {
	stop, release := stopOn(ctx)
	defer release()
	w := min(e.workers, len(pairs))
	if w < 1 {
		w = 1
	}
	// One slot per worker: a worker that finds a match need not wait
	// while the calling goroutine emits another worker's.
	out := make(chan Match, w)
	tallies := make([]JoinStats, w)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for k := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := e.getWS(stop)
			defer e.putWS(ws)
			var st JoinStats
			for !stop.Load() {
				n := int(next.Add(1))
				if n >= len(pairs) {
					break
				}
				p := pairs[n]
				d, match := e.filterPair(ws, &st, trees[p.i], trees[p.j], p.lb, tau, filtered)
				if !match || stop.Load() {
					continue // a stopped pair's result is discarded
				}
				select {
				case out <- Match{I: p.i, J: p.j, Dist: d}:
				case <-ctx.Done():
				}
			}
			tallies[k] = st
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	for m := range out {
		emit(m)
	}
	var st JoinStats
	for _, t := range tallies {
		st.Merge(t)
	}
	return st, ctx.Err()
}
