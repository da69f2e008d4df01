package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	ted "repro"
	"repro/batch"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// Ablation: the batch engine against the naive pairwise join on the
// Table 1 workload (one tree per shape, all pairs). Three effects are
// isolated:
//
//   - prepared trees (per-tree indexes, decompositions, cost vectors and
//     bound profiles computed once instead of once per pair),
//   - per-worker arenas (steady-state allocation-free DP tables), and
//   - the worker pool (near-linear fan-out of the independent pairs).
//
// The naive baseline is a per-pair ted.Distance loop: fresh node
// indexes, a fresh strategy and fresh DP tables per pair, one goroutine.
// It runs the paper's strategy, so the engine rows do too
// (batch.WithPaperStrategy) and must match its subproblems exactly. The
// last row is the engine's default, the strategy priced in time: same
// matches, its own subproblem count.

func init() {
	register("batch", "Ablation: batch engine vs naive pairwise join", batchEngineExp)
}

func batchTrees(cfg Config) []*tree.Tree {
	n := cfg.size(360)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []*tree.Tree
	out = append(out,
		treegen.LeftBranch(n),
		treegen.RightBranch(n),
		treegen.FullBinary(n),
		treegen.ZigZag(n),
	)
	for i := 0; i < 8; i++ {
		out = append(out, treegen.Random(rng, treegen.RandomSpec{
			Size: n, MaxDepth: 15, MaxFanout: 6, Labels: 8,
		}))
	}
	return out
}

func batchEngineExp(cfg Config) error {
	trees := batchTrees(cfg)
	tau := float64(cfg.size(360)) / 2
	fmt.Fprintf(cfg.Out, "# batch: engine vs naive pairwise join, %d trees, tau=%g\n", len(trees), tau)
	fmt.Fprintf(cfg.Out, "variant\tworkers\tpairs\tmatches\tsubproblems\tseconds\n")

	var pairs, matches int
	var subs int64
	start := time.Now()
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			var st ted.Stats
			if ted.Distance(trees[i], trees[j], ted.WithStats(&st)) < tau {
				matches++
			}
			pairs++
			subs += st.Subproblems
		}
	}
	fmt.Fprintf(cfg.Out, "naive\t1\t%d\t%d\t%d\t%.4f\n", pairs, matches, subs, time.Since(start).Seconds())

	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		e := batch.New(batch.WithWorkers(w), batch.WithPaperStrategy())
		ps := e.PrepareAll(trees)
		ms, st := e.Join(ps, tau, false)
		fmt.Fprintf(cfg.Out, "engine\t%d\t%d\t%d\t%d\t%.4f\n",
			w, st.Comparisons, len(ms), st.Subproblems, st.Elapsed.Seconds())
		if len(ms) != matches || st.Subproblems != subs {
			return fmt.Errorf("engine (workers=%d) diverged from naive join: %d/%d matches, %d/%d subproblems",
				w, len(ms), matches, st.Subproblems, subs)
		}
	}

	w := runtime.GOMAXPROCS(0)
	e := batch.New(batch.WithWorkers(w))
	ms, st := e.Join(e.PrepareAll(trees), tau, false)
	fmt.Fprintf(cfg.Out, "engine-priced\t%d\t%d\t%d\t%d\t%.4f\n",
		w, st.Comparisons, len(ms), st.Subproblems, st.Elapsed.Seconds())
	if len(ms) != matches {
		return fmt.Errorf("priced engine diverged from naive join: %d/%d matches", len(ms), matches)
	}
	return nil
}
