package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// Table 2: on the TreeFam phylogeny dataset (simulated by
// treegen.TreeFamLike from its published shape statistics), partition
// trees by size (<500, 500–1000, >1000), sample 20 trees
// per partition, and for every partition pair report the ratio of
// relevant subproblems computed by RTED with respect to (a) the best and
// (b) the worst competitor over all tree pairs of the two partitions.
// The paper's result: RTED is always below 100% of the best competitor
// and the advantage grows with tree size.

func init() {
	register("table2", "Table 2: RTED vs best/worst competitor on TreeFam-like partitions", table2)
}

func table2Partitions(cfg Config) [][]*tree.Tree {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := 6
	if cfg.Scale >= 1 {
		sample = 20 // the paper's sample size
	}
	specs := []struct{ lo, hi int }{
		{cfg.size(100), cfg.size(499)},
		{cfg.size(500), cfg.size(999)},
		{cfg.size(1000), cfg.size(1800)},
	}
	parts := make([][]*tree.Tree, len(specs))
	for i, s := range specs {
		for k := 0; k < sample; k++ {
			n := s.lo
			if s.hi > s.lo {
				n += rng.Intn(s.hi - s.lo)
			}
			parts[i] = append(parts[i], treegen.TreeFamLike(rng, n))
		}
	}
	return parts
}

func table2(cfg Config) error {
	parts := table2Partitions(cfg)
	names := []string{"<500", "500-1000", ">1000"}

	decomps := make([][]*strategy.Decomp, len(parts))
	for i, p := range parts {
		for _, t := range p {
			decomps[i] = append(decomps[i], strategy.NewDecomp(t))
		}
	}

	type cell struct{ best, worst float64 }
	res := make([][]cell, len(parts))
	for i := range parts {
		res[i] = make([]cell, len(parts))
		for j := range parts {
			var rted, best, worst int64
			best = -1
			competitors := []func(f, g *tree.Tree) strategy.Named{
				func(f, g *tree.Tree) strategy.Named { return strategy.ZhangL() },
				func(f, g *tree.Tree) strategy.Named { return strategy.ZhangR() },
				func(f, g *tree.Tree) strategy.Named { return strategy.KleinH() },
				func(f, g *tree.Tree) strategy.Named { return strategy.DemaineH(f, g) },
			}
			// Sum counts over all cross-partition tree pairs, per
			// algorithm; the ratio compares the totals, with best/worst
			// picked per pair as in the paper ("the best and worst
			// competitors vary between the pairs of partitions").
			var sums [4]int64
			for a, f := range parts[i] {
				for b, g := range parts[j] {
					opt, c := strategy.Opt(f, g)
					_ = opt
					rted += c
					for k, mk := range competitors {
						sums[k] += strategy.CountD(f, g, decomps[i][a], decomps[j][b], mk(f, g)).Total
					}
				}
			}
			best, worst = sums[0], sums[0]
			for _, s := range sums[1:] {
				if s < best {
					best = s
				}
				if s > worst {
					worst = s
				}
			}
			res[i][j] = cell{
				best:  100 * float64(rted) / float64(best),
				worst: 100 * float64(rted) / float64(worst),
			}
			if rted > best {
				return fmt.Errorf("table2: RTED %d exceeds best competitor %d for %s×%s",
					rted, best, names[i], names[j])
			}
		}
	}

	header(cfg, "table2", "Table 2(a): RTED to the BEST competitor [%]", append([]string{"sizes"}, names...)...)
	for i := range res {
		fmt.Fprintf(cfg.Out, "%s", names[i])
		for j := range res[i] {
			fmt.Fprintf(cfg.Out, "\t%.1f", res[i][j].best)
		}
		fmt.Fprintln(cfg.Out)
	}
	header(cfg, "table2", "Table 2(b): RTED to the WORST competitor [%]", append([]string{"sizes"}, names...)...)
	for i := range res {
		fmt.Fprintf(cfg.Out, "%s", names[i])
		for j := range res[i] {
			fmt.Fprintf(cfg.Out, "\t%.1f", res[i][j].worst)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}
