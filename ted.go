package ted

import (
	"fmt"
	"math"
	"time"

	"repro/batch"
	"repro/internal/bounds"
	"repro/internal/core"
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
// should be 0 for Distance to be a metric.
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

// Stats reports instrumentation of a Distance call when requested with
// WithStats.
type Stats struct {
	// Subproblems is the number of relevant subproblems the algorithm
	// evaluated (the paper's cost measure, Figures 8 and Tables 1–2).
	// Bounded calls count only the cells they actually computed.
	Subproblems int64
	// PrunedSubproblems is the number of relevant subproblems a bounded
	// call (DistanceBounded) skipped because the cutoff proved them
	// irrelevant, including a size-product lower bound on the cells of
	// keyroot subproblems the band skipped wholesale. Always zero for
	// exact calls.
	PrunedSubproblems int64
	// BandSkippedCells counts the DP cells a bounded call skipped as
	// whole loop ranges of the structural band; with the keyroot-level
	// contributions it makes up PrunedSubproblems.
	BandSkippedCells int64
	// PrunedKeyroots counts keyroot subproblem DPs a bounded call
	// skipped entirely because the size, height or depth-spectra offset
	// of the subtree pair already exceeded its cutoff.
	PrunedKeyroots int64
	// CompressedRows counts forest-distance DP rows a bounded call
	// materialized in band-compressed form: only the admissible band
	// cells of the row were stored. Zero for exact calls.
	CompressedRows int64
	// RowCells counts the DP row cells materialized across the call's row
	// storage; ×8 it is the bytes of row scratch streamed, the
	// memory-traffic measure band compression shrinks.
	RowCells int64
	// SPFCalls counts single-path function invocations.
	SPFCalls int64
	// StrategyTime is the time spent computing the optimal strategy
	// (RTED only); TotalTime covers the whole computation.
	StrategyTime time.Duration
	TotalTime    time.Duration
	// MaxLiveRows is the peak number of retained heavy-path DP rows.
	MaxLiveRows int
}

// gtedStats converts the counters of one GTED run, which took total.
func gtedStats(st gted.Stats, total time.Duration) Stats {
	return Stats{
		Subproblems:       st.Subproblems,
		PrunedSubproblems: st.PrunedSubproblems,
		BandSkippedCells:  st.BandSkippedCells,
		PrunedKeyroots:    st.PrunedKeyroots,
		CompressedRows:    st.CompressedRows,
		RowCells:          st.RowCells,
		SPFCalls:          st.SPFCalls,
		TotalTime:         total,
		MaxLiveRows:       st.MaxLiveRows,
	}
}

// batchStats converts the counters a batch call aggregated over its GTED
// runs, which took total.
func batchStats(st batch.Stats, total time.Duration) Stats {
	return Stats{
		Subproblems:       st.Subproblems,
		PrunedSubproblems: st.PrunedSubproblems,
		BandSkippedCells:  st.BandSkippedCells,
		PrunedKeyroots:    st.PrunedKeyroots,
		CompressedRows:    st.CompressedRows,
		RowCells:          st.RowCells,
		SPFCalls:          st.SPFCalls,
		TotalTime:         total,
		MaxLiveRows:       st.MaxLiveRows,
	}
}

// joinStats converts a join's accounting. Joins track neither SPFCalls
// nor MaxLiveRows; TotalTime is the join's elapsed time.
func joinStats(st batch.JoinStats) Stats {
	return Stats{
		Subproblems:       st.Subproblems,
		PrunedSubproblems: st.PrunedSubproblems,
		BandSkippedCells:  st.BandSkippedCells,
		PrunedKeyroots:    st.PrunedKeyroots,
		CompressedRows:    st.CompressedRows,
		RowCells:          st.RowCells,
		TotalTime:         st.Elapsed,
	}
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
			*c.stats = Stats{
				Subproblems: res.Subproblems,
				TotalTime:   time.Since(start),
			}
		}
		return res.Distance
	case RTED:
		r := core.RTED(f, g, c.model)
		if c.stats != nil {
			*c.stats = Stats{
				Subproblems:  r.Stats.Subproblems,
				SPFCalls:     r.Stats.SPFCalls,
				StrategyTime: r.StrategyTime,
				TotalTime:    r.TotalTime,
				MaxLiveRows:  r.Stats.MaxLiveRows,
			}
		}
		return r.Distance
	default:
		run := gted.New(f, g, c.model, StrategyFor(c.alg, f, g))
		d := run.Run()
		if c.stats != nil {
			st := run.Stats()
			*c.stats = Stats{
				Subproblems: st.Subproblems,
				SPFCalls:    st.SPFCalls,
				TotalTime:   time.Since(start),
				MaxLiveRows: st.MaxLiveRows,
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
// they already exceed tau the DP never launches. Otherwise GTED runs with
// the cutoff threaded into its DP loops — cells whose forest sizes alone
// prove them above the cutoff are skipped, and the run aborts as soon as
// any subtree pair proves the final distance above tau. With WithStats,
// Subproblems counts only the DP cells actually evaluated and
// PrunedSubproblems the cells the cutoff skipped.
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
	run := gted.New(f, g, c.model, StrategyFor(alg, f, g))
	d, ok := run.RunBounded(tau)
	if c.stats != nil {
		*c.stats = gtedStats(run.Stats(), time.Since(start))
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
