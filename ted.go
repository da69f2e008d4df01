package ted

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/zs"
)

// Tree is an immutable ordered labeled tree. Nodes are addressed by
// postorder id via the Label/Parent/Children/Size accessors.
type Tree = tree.Tree

// Node is the mutable builder form of a tree; link Nodes and call Build.
type Node = tree.Node

// NewNode returns a builder node with the given label and children.
func NewNode(label string, children ...*Node) *Node { return tree.NewNode(label, children...) }

// Build converts a builder tree into an immutable indexed Tree.
func Build(root *Node) *Tree { return tree.Index(root) }

// Parse parses bracket notation, e.g. "{a{b}{c}}".
func Parse(s string) (*Tree, error) { return tree.ParseBracket(s) }

// MustParse is Parse that panics on malformed input.
func MustParse(s string) *Tree { return tree.MustParseBracket(s) }

// ParseNewick parses a Newick-format phylogenetic tree, e.g. "(A,B)r;".
func ParseNewick(s string) (*Tree, error) { return tree.ParseNewick(s) }

// CostModel assigns costs to the three node edit operations. Rename(a,a)
// should be 0 for Distance to be a metric. The batch engine and the
// joins call its methods from several goroutines at once, so it must be
// safe for concurrent use.
type CostModel = cost.Model

// UnitCost is the standard model: insert/delete cost 1, rename costs 1
// between different labels and 0 between equal ones. It is the model of
// all experiments in the paper.
var UnitCost CostModel = cost.Unit{}

// WeightedCost scales the three operations by constant weights (rename
// charged only between different labels).
func WeightedCost(del, ins, ren float64) CostModel {
	return cost.Weighted{DeleteW: del, InsertW: ins, RenameW: ren}
}

// FuncCost adapts three closures to a CostModel.
func FuncCost(del, ins func(label string) float64, ren func(a, b string) float64) CostModel {
	return cost.Func{DeleteF: del, InsertF: ins, RenameF: ren}
}

// Algorithm selects the decomposition strategy used by Distance.
type Algorithm int

const (
	// RTED computes the optimal LRH strategy first (the paper's
	// contribution; never worse than any algorithm below).
	RTED Algorithm = iota
	// ZhangL is Zhang & Shasha's algorithm (left paths, via GTED).
	ZhangL
	// ZhangR is the symmetric right-path variant.
	ZhangR
	// KleinH is Klein's algorithm (heavy paths in the left tree).
	KleinH
	// DemaineH is Demaine et al.'s worst-case optimal algorithm (heavy
	// paths in the larger tree).
	DemaineH
	// ZhangShashaClassic is the standalone, hard-coded implementation of
	// Zhang & Shasha's algorithm (not strategy-generic; the fastest
	// per-subproblem constant). Distances are identical to ZhangL.
	ZhangShashaClassic
)

func (a Algorithm) String() string {
	switch a {
	case RTED:
		return "RTED"
	case ZhangL:
		return "Zhang-L"
	case ZhangR:
		return "Zhang-R"
	case KleinH:
		return "Klein-H"
	case DemaineH:
		return "Demaine-H"
	case ZhangShashaClassic:
		return "ZS-classic"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists the five strategy-based algorithms compared in the
// paper's experiments.
var Algorithms = []Algorithm{RTED, ZhangL, ZhangR, KleinH, DemaineH}

// Stats reports instrumentation of a call when requested with
// WithStats: the kernel counters of its GTED runs, summed, and its
// timings. The counters are Subproblems, the relevant subproblems
// evaluated (the paper's cost measure, Figure 8 and Tables 1–2; bounded
// calls count only the cells they computed); PrunedSubproblems and
// BandSkippedCells, what a bounded call's cutoff skipped, and
// PrunedKeyroots, the runs it refused at the root pair before any DP
// (all zero for exact calls); CompressedRows and RowCells, the DP
// rows stored band-compressed and the row cells materialized (×8 the
// bytes of row scratch streamed); SPFCalls, the single-path function
// invocations; and MaxLiveRows, the peak number of retained heavy-path
// DP rows. ZhangShashaClassic does not run GTED and reports only
// Subproblems.
type Stats struct {
	gted.Counters
	// StrategyTime is the time spent computing the optimal strategy
	// (RTED only); TotalTime covers the whole computation.
	StrategyTime time.Duration
	TotalTime    time.Duration
}

type config struct {
	alg     Algorithm
	model   CostModel
	stats   *Stats
	workers int
	filters bool
	indexed bool
	imode   IndexMode
}

// Option configures Distance, Mapping and Join.
type Option func(*config)

// WithAlgorithm selects the algorithm (default RTED).
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.alg = a } }

// WithCost selects the cost model (default UnitCost).
func WithCost(m CostModel) Option { return func(c *config) { c.model = m } }

// WithStats requests instrumentation from the calls that report it
// (Distance, DistanceBounded, Join, TopKSubtrees, TopKSubtreesAcross and
// SubtreeDistances): each overwrites *s with its own counters, so
// nothing an earlier call left there survives.
func WithStats(s *Stats) Option { return func(c *config) { c.stats = s } }

func buildConfig(opts []Option) config {
	c := config{alg: RTED, model: UnitCost}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// StrategyFor returns the paper strategy corresponding to an algorithm
// for the pair (f, g). ZhangShashaClassic has no strategy (it is not
// GTED-based) and maps to the equivalent ZhangL strategy.
func StrategyFor(a Algorithm, f, g *Tree) strategy.Named {
	switch a {
	case ZhangL, ZhangShashaClassic:
		return strategy.ZhangL()
	case ZhangR:
		return strategy.ZhangR()
	case KleinH:
		return strategy.KleinH()
	case DemaineH:
		return strategy.DemaineH(f, g)
	case RTED:
		s, _ := strategy.Opt(f, g)
		return s
	}
	panic(fmt.Sprintf("ted: unknown algorithm %v", a))
}

// Distance computes the tree edit distance between f and g. With no
// options it runs RTED under the unit cost model.
func Distance(f, g *Tree, opts ...Option) float64 {
	c := buildConfig(opts)
	start := time.Now()
	switch c.alg {
	case ZhangShashaClassic:
		res := zs.Run(f, g, c.model)
		if c.stats != nil {
			*c.stats = Stats{Counters: gted.Counters{Subproblems: res.Subproblems}, TotalTime: time.Since(start)}
		}
		return res.Distance
	default:
		// GTED under the algorithm's strategy. RTED (Section 6) computes
		// its optimal LRH strategy here, in O(n²); that phase is the
		// strategy overhead of Figure 10.
		str := StrategyFor(c.alg, f, g)
		strategyTime := time.Since(start)
		run := gted.New(f, g, c.model, str)
		d := run.Run()
		if c.stats != nil {
			*c.stats = Stats{Counters: run.Stats(), TotalTime: time.Since(start)}
			if c.alg == RTED {
				c.stats.StrategyTime = strategyTime
			}
		}
		return d
	}
}

// DistanceBounded answers the threshold question "is the tree edit
// distance at most tau?" without always paying for the full exact
// computation. It returns (d, true) — with d the exact distance — if and
// only if Distance(f, g) ≤ tau; otherwise it returns (lb, false), where
// lb is a lower bound on the distance no smaller than tau.
//
// Two mechanisms make it cheaper than Distance. Under the unit cost
// model, the cheap lower bounds of LowerBound are consulted first: when
// they already exceed tau the DP never launches. Otherwise GTED refuses
// the pair outright when its size or height offset (and, under non-unit
// models, the cheapest rename between the trees' labels) alone prices it
// above tau, and else runs once with every subproblem saturating at tau:
// cells whose forest sizes alone prove them above tau are skipped, so
// the DP's work shrinks with tau. With WithStats, Subproblems counts only
// the DP cells actually evaluated, PrunedSubproblems the cells the cutoff
// skipped and PrunedKeyroots a refusal at the root.
//
// All cost models are supported (the bound prefilter only applies to
// UnitCost). Under non-unit models the cutoff comparison carries a ~1e-9
// relative rounding pad; unit-cost results are exact. The
// ZhangShashaClassic algorithm has no bounded form and is served by the
// equivalent ZhangL strategy.
func DistanceBounded(f, g *Tree, tau float64, opts ...Option) (float64, bool) {
	c := buildConfig(opts)
	start := time.Now()
	if c.stats != nil {
		*c.stats = Stats{}
	}
	if math.IsNaN(tau) {
		return 0, false // no distance is ≤ NaN; 0 is a trivial lower bound
	}
	if c.model == UnitCost {
		if lb := bounds.Lower(f, g); lb > tau {
			if c.stats != nil {
				c.stats.TotalTime = time.Since(start)
			}
			return lb, false
		}
	}
	alg := c.alg
	if alg == ZhangShashaClassic {
		alg = ZhangL
	}
	// The root check runs before the strategy computation, which a
	// refused pair would never use.
	cm := cost.Compile(c.model, f, g)
	st, refused := gted.Refuse(f, g, cm, tau)
	d, ok := math.Inf(1), false
	if !refused {
		run := gted.NewCompiled(f, g, cm, StrategyFor(alg, f, g))
		d, ok = run.RunBounded(tau)
		st = run.Stats()
	}
	if c.stats != nil {
		*c.stats = Stats{Counters: st, TotalTime: time.Since(start)}
	}
	if !ok {
		return tau, false
	}
	return d, true
}

// CountSubproblems returns, without computing any distances, the exact
// number of relevant subproblems the chosen algorithm evaluates on the
// pair (f, g) — the quantity plotted in Figure 8 and Tables 1–2 of the
// paper. It runs in O(|f|·|g|) time.
func CountSubproblems(f, g *Tree, a Algorithm) int64 {
	return strategy.Count(f, g, StrategyFor(a, f, g)).Total
}

// OptimalStrategyCost returns the subproblem count of the optimal LRH
// strategy for (f, g) as computed by OptStrategy (Algorithm 2).
func OptimalStrategyCost(f, g *Tree) int64 {
	_, c := strategy.Opt(f, g)
	return c
}
