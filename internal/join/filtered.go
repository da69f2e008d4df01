package join

import (
	"time"

	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/tree"
)

// FilterStats reports how a filtered join resolved its candidate pairs.
type FilterStats struct {
	// LowerPruned pairs were rejected because a cheap lower bound
	// already reached the threshold.
	LowerPruned int
	// UpperAccepted pairs were accepted because the constrained upper
	// bound stayed below the threshold (their reported distance is the
	// upper bound unless Exact was requested).
	UpperAccepted int
	// ExactComputed pairs needed the exact RTED computation.
	ExactComputed int
}

// FilteredResult extends Result with filter accounting.
type FilteredResult struct {
	Result
	Filter FilterStats
	// Exact records whether reported distances are exact for
	// upper-bound-accepted pairs.
	Exact bool
}

// FilteredSelfJoin is SelfJoin with the bounds pipeline of
// internal/bounds in front of the exact computation (the pruning scheme
// Section 7 of the paper describes): a pair is rejected when a lower
// bound reaches tau, accepted when the constrained upper bound stays
// below tau, and only the undecided remainder runs RTED. The match set
// is identical to SelfJoin's; when exact is false, accepted pairs report
// the upper bound as their distance (≥ the true distance, < tau).
//
// Only the unit cost model admits the published bounds, so the model is
// fixed.
func FilteredSelfJoin(trees []*tree.Tree, tau float64, factory StrategyFactory, exact bool) FilteredResult {
	res := FilteredResult{Result: Result{Tau: tau}, Exact: exact}
	start := time.Now()
	m := cost.Unit{}
	var cs bounds.ConstrainedScratch
	for i := 0; i < len(trees); i++ {
		for j := i + 1; j < len(trees); j++ {
			f, g := trees[i], trees[j]
			res.Comparisons++
			if lb := bounds.Lower(f, g); lb >= tau {
				res.Filter.LowerPruned++
				continue
			}
			if !exact {
				if ub, ok := bounds.ConstrainedBelow(f, g, tau, &cs); ok {
					res.Filter.UpperAccepted++
					res.Pairs = append(res.Pairs, Pair{I: i, J: j, Dist: ub})
					continue
				}
			}
			res.Filter.ExactComputed++
			r := newRunner(f, g, m, factory)
			d := r.Run()
			res.Subproblems += r.Stats().Subproblems
			if d < tau {
				res.Pairs = append(res.Pairs, Pair{I: i, J: j, Dist: d})
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res
}
