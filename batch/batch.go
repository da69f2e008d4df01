// Package batch is the concurrent batch tree-edit-distance engine: it
// amortizes RTED's per-tree work across the many pairs of a workload and
// runs the pairs on a worker pool whose hot path is allocation-free in
// steady state.
//
// The sequential API computes everything per pair: parsing aside, a
// single Distance call builds both trees' node indexes, decomposition
// cardinalities and cost vectors, computes the optimal strategy, and
// allocates fresh DP tables. In a similarity join or top-k workload the
// same tree participates in many pairs, so the per-tree share of that
// work is pure waste — exactly the waste RTED's design exposes, since the
// paper front-loads an O(n²) strategy computation per pair precisely to
// make the exponential-blowup-prone GTED phase minimal. The engine splits
// the work accordingly:
//
//   - Prepare (once per tree): decomposition cardinalities for the
//     optimal-strategy cost formula, the ΔR mirror-leafmost array, label
//     interning with per-node delete/insert cost vectors, and the
//     lower-bound profile (label histogram, binary-branch histogram,
//     serializations) used for pre-filtering.
//   - Per pair (hot path): assemble the pair cost form by slice sharing,
//     compute the pair's strategy and run GTED entirely inside a
//     per-worker Arena whose buffers are reused from pair to pair.
//
// The per-pair strategy is RTED's OptStrategy priced in time rather than
// in subproblems (strategy.TimePrice): each single-path call and each ΔI
// cell carry calibrated weights, so the engine picks the decomposition
// that runs fastest on its own kernel, not the one with the fewest
// cells. Distances do not depend on the strategy. The paper's strategy,
// the fewest relevant subproblems, is one option away
// (WithPaperStrategy); the public ted API's RTED algorithm and the
// paper's experiments (Table 1 among them) run it.
//
// Engines are safe for concurrent use; PreparedTrees are immutable and
// shared freely across goroutines. A PreparedTree is bound to the engine
// that prepared it (label ids come from the engine's interner).
//
// Typical use:
//
//	e := batch.New(batch.WithWorkers(8))
//	ps := e.PrepareAll(trees)
//	matches, stats := e.Join(ps, 12, true)
//
// For large corpora with selective thresholds, JoinIndexed generates
// candidate pairs from an inverted index (package index) instead of
// enumerating all pairs — same match set, candidate-driven cost.
package batch

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// StrategyFunc builds the GTED decomposition strategy for one tree pair.
// The default (nil) is RTED's strategy, priced in time unless
// WithPaperStrategy is set; fixed-strategy factories reproduce the
// paper's competitor algorithms.
type StrategyFunc func(f, g *tree.Tree) strategy.Strategy

// Engine is a reusable batch-TED computer. The zero value is not usable;
// construct with New.
type Engine struct {
	model   cost.Model
	unit    bool
	workers int
	strat   StrategyFunc
	// price is what the per-pair strategy DP minimizes when strat is nil:
	// strategy.TimePrice unless WithPaperStrategy asked for the paper's
	// subproblem count.
	price strategy.Price

	// in assigns the label ids shared by every PreparedTree. It is
	// internally synchronized, and may be shared with other engines (a
	// corpus attaches every engine it creates to one interner, which is
	// what lets corpus-stored artifacts hydrate PreparedTrees for any of
	// them).
	in *cost.Interner
}

// Option configures New.
type Option func(*Engine)

// WithWorkers sets the number of worker goroutines batch calls may use
// (default runtime.GOMAXPROCS(0); values below 1 mean sequential).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithCost sets the cost model (default unit costs). Bound-based
// filtering (DistanceBounded, filtered Join) requires the unit model.
func WithCost(m cost.Model) Option { return func(e *Engine) { e.model = m } }

// WithStrategy overrides the per-pair decomposition strategy (default:
// RTED's strategy priced in time, computed from each tree's cached
// decomposition). Used to run the paper's fixed-strategy competitors
// through the same engine.
func WithStrategy(fn StrategyFunc) Option { return func(e *Engine) { e.strat = fn } }

// WithPaperStrategy makes the engine run the paper's RTED strategy, the
// one with the fewest relevant subproblems (strategy.CountPrice), instead
// of its default, the strategy with the least estimated time
// (strategy.TimePrice). Both give the same distances; only the
// decompositions, and so the subproblem and call counts, differ. The
// paper's experiments and the public ted API's RTED algorithm use it, so
// their subproblem counts are the paper's.
func WithPaperStrategy() Option { return func(e *Engine) { e.price = strategy.CountPrice } }

// WithInterner makes the engine assign label ids from a shared interner
// instead of a private one. Engines sharing an interner agree on label
// ids, which is the compatibility a corpus needs to hydrate one stored
// artifact set into PreparedTrees for every engine it creates
// (corpus.Corpus.Engine passes the corpus's interner here). The interner
// is internally synchronized; nil is ignored.
func WithInterner(in *cost.Interner) Option {
	return func(e *Engine) {
		if in != nil {
			e.in = in
		}
	}
}

// New builds an engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		model:   cost.Unit{},
		workers: runtime.GOMAXPROCS(0),
		price:   strategy.TimePrice,
		in:      cost.NewInterner(),
	}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	_, e.unit = e.model.(cost.Unit)
	return e
}

// Workers returns the engine's worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Interner returns the engine's label interner. Two engines with the
// same interner assign identical label ids, so prepared artifacts (and
// corpus-stored ones) are portable between them.
func (e *Engine) Interner() *cost.Interner { return e.in }

// UnitCost reports whether the engine runs the unit cost model — the
// model required by every bound-based filter (filtered and indexed
// joins, profiled lower bounds).
func (e *Engine) UnitCost() bool { return e.unit }

// FixedStrategy reports whether the engine overrides the per-pair
// decomposition strategy (WithStrategy). Such engines never consult the
// per-tree decomposition cardinalities, so hydration producers can skip
// computing or supplying them.
func (e *Engine) FixedStrategy() bool { return e.strat != nil }

// workspace is the per-worker reusable memory: a GTED arena for the DP
// tables, the OptStrategy scratch (which owns the strategy array the
// runner consumes), the join filter's constrained-distance scratch, and
// the rename-cost memo of non-unit models. Exactly one goroutine uses a
// workspace at a time.
type workspace struct {
	arena       *gted.Arena
	opt         strategy.OptScratch
	constrained bounds.ConstrainedScratch

	// memo caches rename costs by interned label-id pair. Label ids and
	// models are per-engine, so the memo records which engine's ids it
	// holds and is reset when the workspace migrates between engines.
	memo      cost.RenameMemo
	memoOwner *Engine
}

// wsPool is shared by every engine: arenas and strategy scratch are
// engine-independent (they grow to the largest pair served, whoever
// serves it, up to the caps putWS applies), so engines created per
// call — common in tests and in the public ted.Join path, which builds
// a fresh engine per join — inherit warmed buffers instead of growing
// their own.
var wsPool = sync.Pool{
	New: func() any { return &workspace{arena: gted.NewArena()} },
}

func (e *Engine) getWS() *workspace {
	ws := wsPool.Get().(*workspace)
	if ws.memoOwner != e {
		ws.memo.Reset()
		ws.memoOwner = e
	}
	return ws
}

// maxPooledConstrainedCells caps the constrained-distance scratch a
// pooled workspace keeps (256 Ki cells, 2 MiB): enough for every pair of
// a few hundred nodes, while one 4096-node pair (~268 MB at +Inf) is
// released instead of pinned in the pool.
const maxPooledConstrainedCells = 1 << 18

// maxPooledStrategyCells caps the strategy scratch a pooled workspace
// keeps (256 Ki subtree pairs at 25 bytes each, 6.25 MiB): every pair up
// to 512 × 512 nodes, while one 4096-node pair (~420 MB) is released
// instead of pinned in the pool.
const maxPooledStrategyCells = 1 << 18

// maxPooledArenaCells caps the GTED arena a pooled workspace keeps
// (256 Ki subtree pairs, about 4.5 MB at ~17 bytes per cell): every pair
// up to 512 × 512 nodes, while one pair of two 1000-node trees (17 MB)
// is released instead of pinned in the pool.
const maxPooledArenaCells = 1 << 18

func (e *Engine) putWS(w *workspace) {
	w.constrained.Shrink(maxPooledConstrainedCells)
	w.opt.Shrink(maxPooledStrategyCells)
	w.arena.Shrink(maxPooledArenaCells)
	wsPool.Put(w)
}

// Stats is the GTED instrumentation of one batch call, summed over its
// runs with Merge (MaxLiveRows takes the maximum): the kernel counters
// of gted.Counters, which a distributed top-k's coordinator also merges
// across workers.
type Stats = gted.Counters

// pairRunner assembles the arena-backed GTED runner for one pair: pair
// cost form by slice sharing, strategy from the cached decompositions
// (or the engine's StrategyFunc), all DP memory from the workspace.
func (e *Engine) pairRunner(ws *workspace, f, g *PreparedTree) *gted.Runner {
	e.check(f, g)
	cm := cost.PairPreparedMemo(e.model, f.costs, g.costs, &ws.memo)
	var st strategy.Strategy
	if e.strat != nil {
		st = e.strat(f.t, g.t)
	} else {
		st, _ = ws.opt.Opt(f.t, g.t, f.decomp, g.decomp, e.price)
	}
	r := gted.NewInArena(f.t, g.t, cm, st, ws.arena)
	r.SetMirrorLeafmost(f.lfm, g.lfm)
	return r
}

func (e *Engine) check(ps ...*PreparedTree) {
	for _, p := range ps {
		if p.eng != e {
			panic(fmt.Sprintf(
				"batch: PreparedTree was prepared by engine %p but passed to engine %p; "+
					"label ids are per-interner, so either use the preparing engine, or give both "+
					"engines one interner (WithInterner / corpus.Corpus.Engine) and hydrate with "+
					"PrepareHydrated", p.eng, e))
		}
	}
}

// Distance computes the exact tree edit distance between two prepared
// trees on a pooled workspace. Safe for concurrent use.
func (e *Engine) Distance(f, g *PreparedTree) float64 {
	ws := e.getWS()
	defer e.putWS(ws)
	return e.pairRunner(ws, f, g).Run()
}

// DistanceBounded answers "is the distance at most tau?" cheaply: it
// returns (d, true) — d exact — iff the distance is ≤ tau, and otherwise
// (lb, false) with lb a lower bound on the distance no smaller than tau.
// Under the unit cost model the profiled lower bounds are consulted
// first, skipping the DP entirely when they already exceed tau; otherwise
// (and under any other model) GTED runs with tau threaded into its DP
// loops, skipping provably-above-cutoff cells and aborting as soon as the
// distance provably exceeds tau. Safe for concurrent use.
func (e *Engine) DistanceBounded(f, g *PreparedTree, tau float64) (float64, bool) {
	e.check(f, g)
	if math.IsNaN(tau) {
		return 0, false // no distance is ≤ NaN; 0 is a trivial lower bound
	}
	if e.unit {
		if lb := bounds.LowerProfiled(f.profile(), g.profile()); lb > tau {
			return lb, false
		}
	}
	ws := e.getWS()
	defer e.putWS(ws)
	if d, ok := e.pairRunner(ws, f, g).RunBounded(tau); ok {
		return d, true
	}
	return tau, false
}

// Pair names two prepared trees whose distance is wanted.
type Pair struct{ F, G *PreparedTree }

// Result is the outcome of one pair of a Compute or Stream call.
type Result struct {
	// Index is the pair's position in the input slice (Compute) or its
	// arrival order (Stream).
	Index int
	Dist  float64
	// Subproblems is the paper's cost measure for this pair.
	Subproblems int64
}

// Compute evaluates all pairs on the worker pool and returns one Result
// per pair, in input order.
func (e *Engine) Compute(pairs []Pair) []Result {
	out := make([]Result, len(pairs))
	e.parallel(len(pairs), func(ws *workspace, i int) {
		r := e.pairRunner(ws, pairs[i].F, pairs[i].G)
		d := r.Run()
		out[i] = Result{Index: i, Dist: d, Subproblems: r.Stats().Subproblems}
	})
	return out
}

// Stream evaluates pairs as they arrive on in, emitting one Result per
// pair (Index is the arrival order; completion order is not guaranteed).
// The returned channel closes after in is drained and all pairs finish.
//
// A consumer that stops reading early must cancel ctx (and should then
// drain the channel): cancellation releases the workers and their
// pooled arenas; otherwise they block forever on the undrained output.
func (e *Engine) Stream(ctx context.Context, in <-chan Pair) <-chan Result {
	out := make(chan Result, e.workers)
	type item struct {
		p   Pair
		idx int
	}
	items := make(chan item)
	var wg sync.WaitGroup
	for k := 0; k < e.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := e.getWS()
			defer e.putWS(ws)
			for it := range items {
				r := e.pairRunner(ws, it.p.F, it.p.G)
				d := r.Run()
				select {
				case out <- Result{Index: it.idx, Dist: d, Subproblems: r.Stats().Subproblems}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer func() {
			close(items)
			wg.Wait()
			close(out)
		}()
		idx := 0
		for {
			select {
			case p, ok := <-in:
				if !ok {
					return
				}
				select {
				case items <- item{p, idx}:
					idx++
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// parallel runs fn for every i in [0, n) on up to e.workers goroutines,
// each owning one pooled workspace for its whole share of the work.
func (e *Engine) parallel(n int, fn func(ws *workspace, i int)) {
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		ws := e.getWS()
		defer e.putWS(ws)
		for i := 0; i < n; i++ {
			fn(ws, i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := e.getWS()
			defer e.putWS(ws)
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(ws, i)
			}
		}()
	}
	wg.Wait()
}
