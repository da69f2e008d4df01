package strategy

// Price weighs the terms of the strategy cost formula in integer units.
// Under a price, a strategy costs, summed over the subtree pairs GTED
// decomposes with it, Call per pair (one single-path-function call) plus
// I per relevant subproblem of ΔI (heavy paths) or LR per relevant
// subproblem of ΔL/ΔR (left and right paths). OptScratch.Opt returns the
// strategy with the least price.
//
// Every single-path call evaluates at least one subproblem, so for any
// strategy min(LR, I)·Total ≤ price ≤ (Call + max(LR, I))·Total, with
// Total its subproblem count. The priced optimum therefore has at most
// (Call + max(LR, I)) / min(LR, I) times the subproblems of the paper's
// count optimum, whatever the trees: RTED's robustness survives any
// price, up to that constant.
type Price struct {
	Call int64 // per single-path-function call
	LR   int64 // per ΔL/ΔR subproblem
	I    int64 // per ΔI subproblem
}

// CountPrice is the paper's price: every relevant subproblem costs one
// and a call nothing, so the optimum is Algorithm 2's strategy and its
// price is its subproblem count.
var CountPrice = Price{Call: 0, LR: 1, I: 1}

// The time price of the batch engine, in units of one ΔL/ΔR subproblem.
// BenchmarkStrategyPrice (package batch) times the engine's exact and
// bounded runs of top-k-like and shape pairs under six strategies and
// fits the times to ns per single-path call, per ΔL/ΔR subproblem and
// per ΔI subproblem; these constants are its ratios, rounded. On a
// 2-vCPU VM (Go 1.24, -benchtime 30x, three runs) it read 214–280 ns
// per call, 13.7–17.1 ns per ΔL/ΔR and 23.7–32.1 ns per ΔI subproblem:
// a call costs 14.8–17.0 ΔL/ΔR subproblems and a ΔI subproblem
// 1.74–1.90, in exact and bounded runs alike.
const (
	TimeCallPrice = 16
	TimeLRPrice   = 1
	TimeIPrice    = 2
)

// TimePrice prices a strategy in estimated engine time; it is the batch
// engine's default (batch.WithPaperStrategy restores CountPrice).
var TimePrice = Price{Call: TimeCallPrice, LR: TimeLRPrice, I: TimeIPrice}

// strategyName names the strategies a price selects: the paper's count
// gives RTED's strategy.
func (p Price) strategyName() string {
	if p == CountPrice {
		return "RTED"
	}
	return "RTED-priced"
}
