// Package core assembles the paper's primary contribution: RTED, the
// robust tree edit distance algorithm (Section 6). RTED first computes
// the optimal LRH strategy with OptStrategy (O(n²) time and space) and
// then runs GTED with that strategy; its subproblem count is therefore no
// larger than that of any LRH competitor, its worst-case runtime O(n³)
// is optimal, and its space is O(n²).
package core

import (
	"time"

	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// Result carries the distance and the instrumentation of one RTED run.
type Result struct {
	Distance float64
	// StrategyCost is the number of relevant subproblems predicted by
	// the cost formula for the optimal strategy (equals Stats.Subproblems).
	StrategyCost int64
	// StrategyTime is the time OptStrategy took; TotalTime includes the
	// GTED phase. Their ratio is the strategy overhead of Figure 10.
	StrategyTime time.Duration
	TotalTime    time.Duration
	Stats        gted.Counters
	// Strategy is the optimal strategy array (one choice per subtree pair).
	Strategy *strategy.Array
	runner   *gted.Runner
}

// SubtreeDist returns δ(F_v, G_w) for postorder ids v, w after the run.
func (r *Result) SubtreeDist(v, w int) float64 { return r.runner.Dist(v, w) }

// RTED computes the tree edit distance between f and g under model m
// with the optimal LRH strategy.
func RTED(f, g *tree.Tree, m cost.Model) *Result {
	start := time.Now()
	str, costPred := strategy.Opt(f, g)
	stratDone := time.Now()
	r := gted.New(f, g, m, str)
	dist := r.Run()
	end := time.Now()
	return &Result{
		Distance:     dist,
		StrategyCost: costPred,
		StrategyTime: stratDone.Sub(start),
		TotalTime:    end.Sub(start),
		Stats:        r.Stats(),
		Strategy:     str,
		runner:       r,
	}
}

// Distance is the plain-distance convenience wrapper around RTED.
func Distance(f, g *tree.Tree, m cost.Model) float64 {
	return RTED(f, g, m).Distance
}
