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
//   - Prepare (once per tree): the tree's labels on the engine's label
//     table, per-node delete/insert cost vectors, and the lower-bound
//     profile (label histogram, binary-branch histogram, serializations)
//     used for pre-filtering.
//   - Per pair (hot path): assemble the pair cost form by slice sharing,
//     compute the pair's strategy (deriving both trees' decomposition
//     cardinalities in O(|F|+|G|) beside the O(|F|·|G|) strategy DP) and
//     run GTED entirely inside a per-worker Arena whose buffers are
//     reused from pair to pair.
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
// that prepared it (its costs are priced under the engine's model, over
// label ids on the engine's label table).
//
// Typical use:
//
//	e := batch.New(batch.WithWorkers(8))
//	ps := e.PrepareAll(trees)
//	stats, err := e.JoinStream(ctx, ps, 12, true, func(m batch.Match) { ... })
//
// Each operation has one evaluator, run under its caller's context:
// DistanceContext and DistanceBoundedContext for one pair, JoinStream
// and JoinCandidatesStream for joins, TopKAcross for top-k. Once the
// context is done, GTED stops inside the pair it is running, the pair's
// result is discarded and the call returns the context's error.
//
// The engine evaluates the pairs it is given: JoinStream visits every
// pair, JoinCandidatesStream the caller's candidates. Which pairs a join
// needs is package corpus's decision: corpus.Corpus.Join generates
// candidates from an inverted index (package index) for large corpora
// with selective thresholds — same match set, candidate-driven cost.
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

	// labels is the label table every PreparedTree's ids refer to. It is
	// internally synchronized, and may be shared with other engines (a
	// corpus attaches every engine it creates to its own table, on which
	// it keeps every stored tree, so stored trees prepare for any of them
	// without interning a label).
	labels *tree.LabelTable
}

// Option configures New.
type Option func(*Engine)

// WithWorkers sets the number of worker goroutines batch calls may use
// (default runtime.GOMAXPROCS(0); values below 1 mean sequential).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithCost sets the cost model (default unit costs). The profiled lower
// bounds of DistanceBoundedContext and filtered joins run only under the
// unit model, and filtered joins require it.
// The engine calls m from several goroutines at once (see cost.Model).
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

// WithLabelTable makes the engine keep prepared trees' labels on a
// shared label table instead of a private one. Engines sharing a table
// agree on label ids, so a tree on it prepares for any of them without
// interning a label (corpus.Corpus.Engine passes the corpus's table
// here). The table is internally synchronized; nil is ignored.
func WithLabelTable(tab *tree.LabelTable) Option {
	return func(e *Engine) {
		if tab != nil {
			e.labels = tab
		}
	}
}

// New builds an engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		model:   cost.Unit{},
		workers: runtime.GOMAXPROCS(0),
		price:   strategy.TimePrice,
		labels:  tree.NewLabelTable(),
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

// LabelTable returns the engine's label table. Two engines with the same
// table assign identical label ids, so trees on it (every tree a corpus
// stores is on the corpus's) prepare for either without interning.
func (e *Engine) LabelTable() *tree.LabelTable { return e.labels }

// UnitCost reports whether the engine runs the unit cost model — the
// model required by every bound-based filter (filtered and indexed
// joins, profiled lower bounds).
func (e *Engine) UnitCost() bool { return e.unit }

// workspace is the per-worker reusable memory: a GTED arena for the DP
// tables, the OptStrategy scratch (which owns the strategy array the
// runner consumes), the join filter's constrained-distance scratch, the
// top-k scan's Euler-string scratch, and the rename-cost memo of
// non-unit models. Exactly one goroutine uses a workspace at a time.
type workspace struct {
	arena       *gted.Arena
	opt         strategy.OptScratch
	constrained bounds.ConstrainedScratch
	euler       bounds.EulerScratch

	stop *atomic.Bool // the flag of the call holding the workspace (stopOn)

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

func (e *Engine) getWS(stop *atomic.Bool) *workspace {
	ws := wsPool.Get().(*workspace)
	if ws.memoOwner != e {
		ws.memo.Reset()
		ws.memoOwner = e
	}
	ws.stop = stop
	return ws
}

// stopOn returns the stop flag of one call under ctx, set once ctx is
// done (at once if it already is), which the call's runners poll inside
// their pair (gted.Runner), and the func that stops watching ctx.
func stopOn(ctx context.Context) (*atomic.Bool, func() bool) {
	stop := new(atomic.Bool)
	stop.Store(ctx.Err() != nil)
	return stop, context.AfterFunc(ctx, func() { stop.Store(true) })
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
	w.stop = nil
	w.constrained.Shrink(maxPooledConstrainedCells)
	w.opt.Shrink(maxPooledStrategyCells)
	w.arena.Shrink(maxPooledArenaCells)
	wsPool.Put(w)
}

// Stats is the GTED instrumentation of one batch call, summed over its
// runs with Merge (MaxLiveRows takes the maximum): the kernel counters
// of gted.Counters, which a gateway's distributed top-k also merges
// across workers.
type Stats = gted.Counters

// pairRunner assembles the arena-backed GTED runner for one pair: pair
// cost form by slice sharing, the pair's strategy (or the engine's
// StrategyFunc), all DP memory from the workspace.
func (e *Engine) pairRunner(ws *workspace, f, g *PreparedTree) *gted.Runner {
	e.check(f, g)
	return e.runner(ws, f, g, cost.PairPreparedMemo(e.model, f.costs, g.costs, &ws.memo))
}

func (e *Engine) runner(ws *workspace, f, g *PreparedTree, cm *cost.Compiled) *gted.Runner {
	var st strategy.Strategy
	if e.strat != nil {
		st = e.strat(f.t, g.t)
	} else {
		st, _ = ws.opt.Opt(f.t, g.t, e.price)
	}
	return gted.NewInArena(f.t, g.t, cm, st, ws.arena, ws.stop)
}

// runBounded runs the pair with cutoff tau (gted.Runner.RunBounded),
// making the root check (gted.Refuse) before the strategy DP, so a
// refused pair pays for neither. It returns the run's counters.
func (e *Engine) runBounded(ws *workspace, f, g *PreparedTree, tau float64) (float64, bool, Stats) {
	e.check(f, g)
	cm := cost.PairPreparedMemo(e.model, f.costs, g.costs, &ws.memo)
	if st, refused := gted.Refuse(f.t, g.t, cm, tau); refused {
		return math.Inf(1), false, st
	}
	r := e.runner(ws, f, g, cm)
	d, ok := r.RunBounded(tau)
	return d, ok, r.Stats()
}

func (e *Engine) check(ps ...*PreparedTree) {
	for _, p := range ps {
		if p.eng != e {
			panic(fmt.Sprintf(
				"batch: PreparedTree was prepared by engine %p but passed to engine %p; "+
					"costs are priced per engine, so prepare the tree with the engine that "+
					"computes with it", p.eng, e))
		}
	}
}

// DistanceContext computes the exact tree edit distance between two
// prepared trees on a pooled workspace. Once ctx is done the run stops
// inside the pair, and the call returns ctx's error. Safe for concurrent
// use.
func (e *Engine) DistanceContext(ctx context.Context, f, g *PreparedTree) (float64, error) {
	stop, release := stopOn(ctx)
	defer release()
	ws := e.getWS(stop)
	defer e.putWS(ws)
	d := e.pairRunner(ws, f, g).Run()
	if stop.Load() {
		return 0, ctx.Err()
	}
	return d, nil
}

// Distance is DistanceContext under context.Background().
func (e *Engine) Distance(f, g *PreparedTree) float64 {
	d, _ := e.DistanceContext(context.Background(), f, g)
	return d
}

// DistanceBoundedContext answers "is the distance at most tau?" cheaply:
// it returns (d, true) — d exact — iff the distance is ≤ tau, and
// otherwise (lb, false) with lb a lower bound on the distance no smaller
// than tau. Under the unit cost model the profiled lower bounds are
// consulted first, skipping the DP entirely when they already exceed
// tau; otherwise (and under any other model) GTED refuses the pair at
// its root when its size or height offset alone prices it above tau
// (gted.Refuse), and else runs once with every subproblem saturating at
// tau, skipping the cells that provably exceed it. Once ctx is done the
// run stops inside the pair, and the call returns ctx's error. Safe for
// concurrent use.
func (e *Engine) DistanceBoundedContext(ctx context.Context, f, g *PreparedTree, tau float64) (float64, bool, error) {
	e.check(f, g)
	if math.IsNaN(tau) {
		return 0, false, nil // no distance is ≤ NaN; 0 is a trivial lower bound
	}
	if e.unit {
		if lb := bounds.LowerProfiled(f.prof, g.prof); lb > tau {
			return lb, false, nil
		}
	}
	stop, release := stopOn(ctx)
	defer release()
	ws := e.getWS(stop)
	defer e.putWS(ws)
	d, ok, _ := e.runBounded(ws, f, g, tau)
	switch {
	case stop.Load():
		return 0, false, ctx.Err()
	case ok:
		return d, true, nil
	}
	return tau, false, nil
}

// DistanceBounded is DistanceBoundedContext under context.Background().
func (e *Engine) DistanceBounded(f, g *PreparedTree, tau float64) (float64, bool) {
	d, ok, _ := e.DistanceBoundedContext(context.Background(), f, g, tau)
	return d, ok
}
