package experiments

import (
	"fmt"
	"math/rand"

	"repro/batch"
	"repro/corpus"
	"repro/gen"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// Ablation: index-accelerated candidate generation against the
// enumerate+filter join, on two corpora that bracket the design space:
//
//   - shapes: the paper's synthetic shape trees (Figure 7) at several
//     sizes. Every node carries the same label — the honest worst case
//     for signature indexes, where both degrade to size-only candidate
//     pruning (every pair shares labels and grams) and the win over
//     enumeration comes from the size bound alone.
//   - random: bounded random trees over a diverse alphabet plus
//     near-duplicate clusters. Labels discriminate strongly — the
//     histogram index's home turf, where it generates an order of
//     magnitude fewer candidates than enumeration visits.
//
// The joins run on corpus.Join, which builds the selected index per
// call. All three modes must report the identical match set (the
// indexed-join equivalence guarantee); a divergence or a candidate-count regression —
// an index that stops pruning its favourable regime — fails the run,
// which is what the CI smoke step executes.

func init() {
	register("index", "Ablation: indexed candidate generation vs enumerate+filter join", indexExp)
}

// indexCorpora builds the two corpora, scaled.
func indexCorpora(cfg Config) map[string][]*tree.Tree {
	n := cfg.size(160)
	var shapes []*tree.Tree
	for _, s := range []int{n, n + n/4, n + n/2, 2 * n} {
		shapes = append(shapes,
			treegen.LeftBranch(s),
			treegen.RightBranch(s),
			treegen.FullBinary(s),
			treegen.ZigZag(s),
			treegen.Mixed(s),
		)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var random []*tree.Tree
	for i := 0; i < 8; i++ {
		base := treegen.Random(rng, treegen.RandomSpec{
			Size: n + rng.Intn(n), MaxDepth: 12, MaxFanout: 6, Labels: 24,
		})
		random = append(random, base)
		// Two near-duplicates per base: rename a few nodes so each
		// cluster holds true matches.
		for v := 0; v < 2; v++ {
			random = append(random, gen.RenameSome(base, 2+v, rng.Int63()))
		}
	}
	return map[string][]*tree.Tree{"shapes": shapes, "random": random}
}

func indexExp(cfg Config) error {
	header(cfg, "index", "indexed candidate generation vs enumerate+filter",
		"corpus", "tau", "mode", "candidates", "lb_pruned", "ub_accepted", "exact", "matches", "seconds")

	corpora := indexCorpora(cfg)
	for _, name := range []string{"shapes", "random"} {
		trees := corpora[name]
		c := corpus.New()
		for _, t := range trees {
			c.Add(t)
		}
		e := c.Engine()
		allPairs := len(trees) * (len(trees) - 1) / 2
		for _, tau := range []float64{float64(cfg.size(160)) / 8, float64(cfg.size(160)) / 2} {
			type run struct {
				mode    batch.IndexMode
				matches []corpus.Match
				stats   batch.JoinStats
			}
			var runs []run
			for _, mode := range []batch.IndexMode{batch.IndexEnumerate, batch.IndexHistogram, batch.IndexPQGram} {
				ms, st := c.Join(e, tau, batch.JoinOptions{Mode: mode})
				runs = append(runs, run{mode, ms, st})
				fmt.Fprintf(cfg.Out, "%s\t%g\t%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
					name, tau, mode, st.Comparisons, st.LowerPruned, st.UpperAccepted,
					st.ExactComputed, len(ms), secs(st.Elapsed))
			}
			base := runs[0]
			if base.stats.Comparisons != allPairs {
				return fmt.Errorf("%s tau=%g: enumeration visited %d pairs, want %d",
					name, tau, base.stats.Comparisons, allPairs)
			}
			for _, r := range runs[1:] {
				if len(r.matches) != len(base.matches) {
					return fmt.Errorf("%s tau=%g: %s found %d matches, enumerate+filter %d",
						name, tau, r.mode, len(r.matches), len(base.matches))
				}
				for k := range base.matches {
					if r.matches[k] != base.matches[k] {
						return fmt.Errorf("%s tau=%g: %s match %d = %+v, want %+v",
							name, tau, r.mode, k, r.matches[k], base.matches[k])
					}
				}
				if r.stats.Comparisons > base.stats.Comparisons {
					return fmt.Errorf("%s tau=%g: %s generated %d candidates, more than the %d enumerated pairs",
						name, tau, r.mode, r.stats.Comparisons, base.stats.Comparisons)
				}
			}
			// Regression guard on pruning power at the selective
			// threshold: the histogram must prune the label-diverse
			// corpus, and even in the single-label worst case both
			// indexes must still prune through their size bounds.
			if tau == float64(cfg.size(160))/8 {
				hist, pq := runs[1], runs[2]
				if name == "random" && hist.stats.Comparisons >= allPairs {
					return fmt.Errorf("random corpus: histogram index generated all %d pairs — no pruning", allPairs)
				}
				if name == "shapes" && (hist.stats.Comparisons >= allPairs || pq.stats.Comparisons >= allPairs) {
					return fmt.Errorf("shape corpus: index generated all %d pairs — size bound stopped pruning", allPairs)
				}
			}
		}
	}
	return nil
}
