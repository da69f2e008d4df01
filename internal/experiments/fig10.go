package experiments

import (
	"fmt"
	"math/rand"

	ted "repro"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// Figure 10: overhead of the strategy computation within the overall
// RTED runtime, on TreeBank-like, SwissProt-like and synthetic random
// trees. For each size point a pair of trees of roughly that size is
// drawn from the dataset simulator and RTED is run; the table reports
// the strategy time, the total time and the overhead percentage. The
// paper's claim: the fraction decreases with the tree size and the
// strategy time is shape independent.

func init() {
	register("fig10a", "Figure 10(a) strategy overhead on TreeBank-like trees", func(cfg Config) error {
		rng := rand.New(rand.NewSource(cfg.Seed))
		return fig10(cfg, "fig10a", "Figure 10(a) TreeBank", func(n int) *tree.Tree {
			return treegen.TreeBankLike(rng, n)
		}, 300)
	})
	register("fig10b", "Figure 10(b) strategy overhead on SwissProt-like trees", func(cfg Config) error {
		rng := rand.New(rand.NewSource(cfg.Seed))
		return fig10(cfg, "fig10b", "Figure 10(b) SwissProt", func(n int) *tree.Tree {
			return treegen.SwissProtLike(rng, n)
		}, 2000)
	})
	register("fig10c", "Figure 10(c) strategy overhead on synthetic random trees", func(cfg Config) error {
		rng := rand.New(rand.NewSource(cfg.Seed))
		return fig10(cfg, "fig10c", "Figure 10(c) random", func(n int) *tree.Tree {
			return treegen.Random(rng, treegen.RandomSpec{Size: n, MaxDepth: 25, MaxFanout: 8, Labels: 16})
		}, 3000)
	})
}

func fig10(cfg Config, id, title string, build func(n int) *tree.Tree, hi int) error {
	header(cfg, id, title, "size", "strategy[s]", "overall[s]", "overhead%")
	for _, n := range cfg.sizes(50, hi, 6) {
		f, g := build(n), build(n)
		var st ted.Stats
		ted.Distance(f, g, ted.WithStats(&st))
		pct := 100 * st.StrategyTime.Seconds() / st.TotalTime.Seconds()
		avg := (f.Len() + g.Len()) / 2
		fmt.Fprintf(cfg.Out, "%d\t%s\t%s\t%.1f\n", avg, secs(st.StrategyTime), secs(st.TotalTime), pct)
	}
	return nil
}
