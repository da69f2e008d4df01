package ted

import (
	"cmp"
	"context"
	"slices"

	"repro/batch"
	"repro/corpus"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// JoinPair is one similarity-join match: trees at indices I and J of the
// input collection (I < J) with edit distance Dist < τ.
type JoinPair = batch.Match

// JoinResult reports the matches and the cost of a similarity self-join.
// The embedded batch.JoinStats counts the pairs the join visited (all
// unordered pairs for enumerating joins, the generated candidates for
// indexed joins), the filter accounting of filtered and indexed joins,
// the kernel counters, and for indexed joins the candidate generator
// that ran and its build + probe time.
type JoinResult struct {
	Pairs []JoinPair
	batch.JoinStats
}

// IndexMode selects how an indexed join generates candidate pairs; see
// batch.IndexMode for the semantics of each value.
type IndexMode = batch.IndexMode

const (
	// IndexAuto picks enumeration for non-selective thresholds and the
	// histogram index otherwise.
	IndexAuto = batch.IndexAuto
	// IndexEnumerate visits all pairs (bound filters do every rejection).
	IndexEnumerate = batch.IndexEnumerate
	// IndexHistogram generates candidates from the label-histogram
	// inverted index.
	IndexHistogram = batch.IndexHistogram
	// IndexPQGram generates candidates from the (1,2)-gram inverted
	// index (pairs sharing local structure, not just labels).
	IndexPQGram = batch.IndexPQGram
)

// WithWorkers runs the join's distance computations on n goroutines
// (default 1). Results are identical and deterministic.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithFilters enables the lower/upper-bound pipeline in front of the
// exact computation (Section 7 of the paper: bounds prune exact distance
// computations in threshold joins). The match set is unchanged; the
// reported distance of a pair accepted by the upper bound is that upper
// bound (≥ the true distance, still below tau). Filtered joins require
// the unit cost model, the model of all published bounds.
func WithFilters() Option { return func(c *config) { c.filters = true } }

// WithIndex routes Join through inverted-index candidate generation
// (package index): instead of enumerating all O(n²) pairs and filtering,
// the join builds an index over the collection and visits only the pairs
// the index cannot rule out; the bound filters of WithFilters then run
// on the candidates, so the match set is provably identical to the
// enumerating join's. Indexed joins require the unit cost model.
//
// Use IndexAuto unless you know the workload: it enumerates when the
// threshold is too large for any index to prune, and generates from the
// label-histogram index otherwise. IndexPQGram trades a costlier index
// build for structure-aware candidates — the better choice when most
// trees share most labels. See the package index documentation for the
// full decision guide.
func WithIndex(m IndexMode) Option {
	return func(c *config) {
		c.indexed = true
		c.imode = m
	}
}

// batchOpts assembles the batch engine options a config describes:
// worker count, cost model, and the per-pair strategy — the paper's RTED
// strategy for RTED, the fixed strategy of a competitor algorithm
// otherwise.
func (c config) batchOpts(workers int) []batch.Option {
	opts := []batch.Option{batch.WithWorkers(workers), batch.WithCost(c.model)}
	if c.alg == RTED {
		return append(opts, batch.WithPaperStrategy())
	}
	a := c.alg
	return append(opts, batch.WithStrategy(func(f, g *tree.Tree) strategy.Strategy {
		return StrategyFor(a, f, g)
	}))
}

// batchEngine builds a free-standing engine from the config.
func (c config) batchEngine(workers int) *batch.Engine {
	return batch.New(c.batchOpts(workers)...)
}

// Join computes the similarity self-join of the paper's Table 1: all
// pairs of trees in the collection with edit distance below tau. Options
// select the algorithm and cost model as for Distance, plus WithWorkers,
// WithFilters and WithIndex (all of which compose: an indexed join's
// candidates run the bound filters and fan out over the workers too).
//
// Join runs on the batch engine: every tree is prepared once — node
// indexes, cost vectors, bound profiles — and the pairs are evaluated on
// per-worker reusable arenas, so the per-pair cost is the strategy and
// GTED computation alone.
func Join(trees []*Tree, tau float64, opts ...Option) JoinResult {
	c := buildConfig(opts)
	if (c.filters || c.indexed) && c.model != UnitCost {
		panic("ted: filtered and indexed joins require the unit cost model")
	}
	workers := c.workers
	if workers < 1 {
		workers = 1
	}
	var ms []batch.Match
	var st batch.JoinStats
	if c.indexed {
		// Indexed joins run on the corpus layer, which owns candidate
		// generation: the collection becomes a transient corpus (Add
		// assigns IDs 0..n−1, the collection indices) that builds the
		// selected index per call, and the engine prepares the corpus's
		// trees — the same path a persisted corpus takes after Load.
		cp := corpus.New()
		for _, t := range trees {
			cp.Add(t)
		}
		e := cp.Engine(c.batchOpts(workers)...)
		cms, cst := cp.Join(e, tau, batch.JoinOptions{Mode: c.imode})
		st = cst
		for _, m := range cms {
			ms = append(ms, batch.Match{I: int(m.I), J: int(m.J), Dist: m.Dist})
		}
	} else {
		e := c.batchEngine(workers)
		st, _ = e.JoinStream(context.Background(), e.PrepareAll(trees), tau, c.filters, func(m batch.Match) { ms = append(ms, m) })
		slices.SortFunc(ms, func(a, b batch.Match) int {
			return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
		})
	}
	if c.stats != nil {
		*c.stats = Stats{Counters: st.Counters, TotalTime: st.Elapsed}
	}
	return JoinResult{Pairs: ms, JoinStats: st}
}
