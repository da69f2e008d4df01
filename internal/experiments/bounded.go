package experiments

import (
	"fmt"
	"math/rand"

	ted "repro"
	"repro/batch"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// Ablation: the bounded-TED early exit (tau threaded into GTED's DP as a
// saturating cutoff) against the exact algorithm, in two settings:
//
//   - pairwise, on cross-shape pairs of the paper's synthetic shape trees
//     (Figure 7): for each pair, DistanceBounded at cutoffs below and
//     above the exact distance, reporting the subproblems evaluated and
//     pruned. For tau well under d the bounded run must evaluate
//     strictly fewer subproblems than exact GTED — that regression guard
//     is what the CI smoke step executes.
//   - join, on a mixed shapes+random corpus: the filtered join (which
//     seeds every exact-stage pair with the threshold as its cutoff)
//     must report exactly the plain join's match set while evaluating no
//     more subproblems.

func init() {
	register("bounded", "Ablation: bounded-TED early exit (tau-threaded GTED) vs exact", boundedExp)
}

func boundedExp(cfg Config) error {
	header(cfg, "bounded", "tau-threaded GTED vs exact",
		"section", "pair", "d", "tau", "exact_subs", "bounded_subs", "pruned", "band_cells", "verdict")

	n := cfg.size(120)
	shapes := []struct {
		name string
		t    *tree.Tree
	}{
		{"left", treegen.LeftBranch(n)},
		{"right", treegen.RightBranch(n)},
		{"binary", treegen.FullBinary(n)},
		{"zigzag", treegen.ZigZag(n + n/3)},
		{"mixed", treegen.Mixed(n + n/2)},
	}
	for i := 0; i < len(shapes); i++ {
		for j := i + 1; j < len(shapes); j++ {
			f, g := shapes[i].t, shapes[j].t
			pair := shapes[i].name + "/" + shapes[j].name
			var est ted.Stats
			d := ted.Distance(f, g, ted.WithStats(&est))
			for _, frac := range []float64{0.125, 0.5, 1.5} {
				tau := d * frac
				var bst ted.Stats
				bd, ok := ted.DistanceBounded(f, g, tau, ted.WithStats(&bst))
				verdict := "exceeds"
				if ok {
					verdict = "exact"
				}
				// band_cells splits the pruning attribution: cells skipped
				// as whole band ranges, vs size products of keyroot DPs the
				// keyroot-level band refused outright.
				fmt.Fprintf(cfg.Out, "pairwise\t%s\t%g\t%g\t%d\t%d\t%d\t%d\t%s\n",
					pair, d, tau, est.Subproblems, bst.Subproblems, bst.PrunedSubproblems, bst.BandSkippedCells, verdict)
				if ok != (d <= tau) {
					return fmt.Errorf("%s tau=%g: bounded verdict %v but d=%g", pair, tau, ok, d)
				}
				if ok && bd != d {
					return fmt.Errorf("%s tau=%g: bounded distance %g, exact %g", pair, tau, bd, d)
				}
				if bst.Subproblems > est.Subproblems {
					return fmt.Errorf("%s tau=%g: bounded evaluated %d subproblems, exact %d",
						pair, tau, bst.Subproblems, est.Subproblems)
				}
				// The acceptance guard: for tau well under d the cutoff
				// must skip part of the DP, not just re-run it.
				if frac <= 0.5 && d >= 4 && bst.Subproblems >= est.Subproblems {
					return fmt.Errorf("%s tau=%g (d=%g): bounded run pruned nothing (%d vs %d subproblems)",
						pair, tau, d, bst.Subproblems, est.Subproblems)
				}
			}
		}
	}

	// Join section: bounded (filtered) join vs plain join on a corpus of
	// shapes and random trees; identical match sets required.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var corpus []*tree.Tree
	for _, s := range shapes {
		corpus = append(corpus, s.t)
	}
	for i := 0; i < 10; i++ {
		corpus = append(corpus, treegen.Random(rng, treegen.RandomSpec{
			Size: n/2 + rng.Intn(n), MaxDepth: 10, MaxFanout: 5, Labels: 6,
		}))
	}
	e := batch.New()
	ps := e.PrepareAll(corpus)
	for _, tau := range []float64{float64(n) / 8, float64(n) / 2} {
		plain, pst := e.Join(ps, tau, false)
		bounded, bst := e.Join(ps, tau, true)
		fmt.Fprintf(cfg.Out, "join\tcorpus\t-\t%g\t%d\t%d\t%d\t%d\t%d-matches\n",
			tau, pst.Subproblems, bst.Subproblems, bst.PrunedSubproblems, bst.BandSkippedCells, len(bounded))
		if len(plain) != len(bounded) {
			return fmt.Errorf("join tau=%g: bounded found %d matches, plain %d", tau, len(bounded), len(plain))
		}
		for k := range plain {
			if plain[k].I != bounded[k].I || plain[k].J != bounded[k].J {
				return fmt.Errorf("join tau=%g: match %d differs: %+v vs %+v", tau, k, plain[k], bounded[k])
			}
		}
		if bst.Subproblems > pst.Subproblems {
			return fmt.Errorf("join tau=%g: bounded evaluated %d subproblems, plain %d",
				tau, bst.Subproblems, pst.Subproblems)
		}
	}
	return nil
}
