package batch_test

import (
	"math/rand"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
)

// benchShape draws one 20–60-node tree of a mixed shape: TreeBank-like,
// SwissProt-like or random, in equal shares.
func benchShape(rng *rand.Rand) *ted.Tree {
	size := 20 + rng.Intn(41)
	s := rng.Int63()
	switch rng.Intn(3) {
	case 0:
		return gen.TreeBankLike(s, size)
	case 1:
		return gen.SwissProtLike(s, size)
	}
	return gen.Random(s, gen.RandomSpec{Size: size, MaxDepth: 15, MaxFanout: 6, Labels: 20})
}

// BenchmarkJoinFilterStages times filtered self-joins at tau 2, 3 and 4
// (one op runs all three) on one worker, through corpus.Join on a warm
// corpus, over corpora that exercise different filter stages:
//
//   - distinct: 240 unrelated mixed-shape trees. Almost every pair the
//     size bound passes is rejected by a profiled lower bound; the upper
//     bound accepts nothing.
//   - clusters/enumerate: 80 clusters of a tree and two copies with one
//     or two renames, every pair visited. Pairs inside a cluster are
//     accepted by the upper bound, pairs across clusters rejected.
//   - clusters/histogram: the same corpus through the label-histogram
//     index, built per call, which leaves mostly the in-cluster pairs.
func BenchmarkJoinFilterStages(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var distinct, clusters []*ted.Tree
	for i := 0; i < 240; i++ {
		distinct = append(distinct, benchShape(rng))
	}
	for c := 0; c < 80; c++ {
		t := benchShape(rng)
		clusters = append(clusters, t,
			gen.RenameSome(t, 1+rng.Intn(2), rng.Int63()),
			gen.RenameSome(t, 1+rng.Intn(2), rng.Int63()))
	}
	taus := []float64{2, 3, 4}
	run := func(name string, trees []*ted.Tree, mode batch.IndexMode) {
		b.Run(name, func(b *testing.B) {
			c := corpus.New()
			for _, t := range trees {
				c.Add(t)
			}
			e := c.Engine(batch.WithWorkers(1))
			c.Warm(e)
			join := func(tau float64) batch.JoinStats {
				_, st := c.Join(e, tau, batch.JoinOptions{Mode: mode})
				return st
			}
			var st batch.JoinStats
			for _, tau := range taus {
				st.Merge(join(tau))
			}
			for b.Loop() {
				for _, tau := range taus {
					join(tau)
				}
			}
			b.ReportMetric(float64(st.UpperAccepted)/float64(st.Comparisons), "accepted/pair")
			b.ReportMetric(float64(st.LowerPruned)/float64(st.Comparisons), "pruned/pair")
		})
	}
	run("distinct", distinct, batch.IndexEnumerate)
	run("clusters/enumerate", clusters, batch.IndexEnumerate)
	run("clusters/histogram", clusters, batch.IndexHistogram)
}
