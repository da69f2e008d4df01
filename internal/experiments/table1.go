package experiments

import (
	"fmt"
	"math/rand"

	ted "repro"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// Table 1: similarity self-join over T = {LB, RB, FB, ZZ, Random} with
// roughly equal sizes. Reports, per algorithm, the join runtime and the
// total number of relevant subproblems. The paper's result: RTED widely
// outperforms all competitors because fixed strategies degenerate on
// cross-shape pairs (e.g. Zhang-L on the LB×RB pair).

func init() {
	register("table1", "Table 1: join on trees with different shapes", table1)
}

func table1Trees(cfg Config) []*tree.Tree {
	n := cfg.size(1000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	return []*tree.Tree{
		treegen.LeftBranch(n),
		treegen.RightBranch(n),
		treegen.FullBinary(n),
		treegen.ZigZag(n),
		treegen.Random(rng, treegen.PaperRandom(n)),
	}
}

// table1Algorithms lists the join competitors in the paper's row order.
var table1Algorithms = []ted.Algorithm{ted.ZhangL, ted.ZhangR, ted.KleinH, ted.DemaineH, ted.RTED}

func table1(cfg Config) error {
	trees := table1Trees(cfg)
	tau := float64(cfg.size(1000)) / 2
	header(cfg, "table1", "Table 1: join on trees with different shapes",
		"algorithm", "time[s]", "subproblems", "matches")
	var rted, bestOther int64 = -1, -1
	for _, a := range table1Algorithms {
		r := ted.Join(trees, tau, ted.WithAlgorithm(a))
		fmt.Fprintf(cfg.Out, "%s\t%s\t%d\t%d\n", a, secs(r.Elapsed), r.Subproblems, len(r.Pairs))
		if a == ted.RTED {
			rted = r.Subproblems
		} else if bestOther == -1 || r.Subproblems < bestOther {
			bestOther = r.Subproblems
		}
	}
	if rted > bestOther {
		return fmt.Errorf("table1: RTED subproblems %d exceed best competitor %d", rted, bestOther)
	}
	// RTED is the paper's strategy, whose count the cost formula gives
	// per pair; the join must run exactly that.
	var paper int64
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			paper += ted.OptimalStrategyCost(trees[i], trees[j])
		}
	}
	if rted != paper {
		return fmt.Errorf("table1: RTED ran %d subproblems, the paper's strategy counts %d", rted, paper)
	}
	return nil
}
