package corpus_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
)

// mixedTree draws one tree as the end-to-end benchmark's workloads draw
// their stored trees: TreeBank-like, SwissProt-like and random shapes
// in equal shares, 20–60 nodes.
func mixedTree(rng *rand.Rand) *ted.Tree {
	size, seed := 20+rng.Intn(41), rng.Int63()
	switch rng.Intn(3) {
	case 0:
		return gen.TreeBankLike(seed, size)
	case 1:
		return gen.SwissProtLike(seed, size)
	}
	return gen.Random(seed, gen.RandomSpec{Size: size, MaxDepth: 15, MaxFanout: 6, Labels: 20})
}

// BenchmarkTopKScan times the top-k scan in process, without HTTP, on
// the corpus of the end-to-end benchmark's topk workload: 150 mixed
// trees (mixedTree), queried by 64 of them with two labels renamed each,
// at k = 5. One op runs the 64 queries through Corpus.TopKRange on one
// worker, under a cancellable context, so the kernel polls a live stop
// flag as it does for a server request; subproblems/op is the kernel's
// work, which a change that keeps the answers and the strategy keeps.
// Compare ns/op over alternating runs:
//
//	go test -run '^$' -bench '^BenchmarkTopKScan$' -benchtime 15x ./corpus
func BenchmarkTopKScan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := corpus.New()
	stored := make([]*ted.Tree, 150)
	for i := range stored {
		stored[i] = mixedTree(rng)
		c.Add(stored[i])
	}
	e := c.Engine(batch.WithWorkers(1))
	c.Warm(e)
	queries := make([]*batch.PreparedTree, 64)
	for i := range queries {
		queries[i] = c.PrepareQuery(e, gen.RenameSome(stored[rng.Intn(len(stored))], 2, rng.Int63()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var subproblems int64
	b.ResetTimer()
	for range b.N {
		for _, q := range queries {
			_, st, err := c.TopKRange(ctx, e, q, 5, 0, math.MaxInt)
			if err != nil {
				b.Fatal(err)
			}
			subproblems += st.Subproblems
		}
	}
	b.ReportMetric(float64(subproblems)/float64(b.N), "subproblems/op")
}
