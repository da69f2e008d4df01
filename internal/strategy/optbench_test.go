package strategy

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/treegen"
)

// BenchmarkOptDP times the strategy DP alone on every ordered pair of 30
// mixed 20–60-node trees (TreeBank-like, SwissProt-like, random: the
// top-k workload's shapes) on one warm scratch, and reports ns per
// subtree pair, the cell of the DP.
func BenchmarkOptDP(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ts := make([]*tree.Tree, 30)
	for i := range ts {
		n := 20 + rng.Intn(41)
		switch i % 3 {
		case 0:
			ts[i] = treegen.TreeBankLike(rng, n)
		case 1:
			ts[i] = treegen.SwissProtLike(rng, n)
		default:
			ts[i] = treegen.Random(rng, treegen.RandomSpec{Size: n, MaxDepth: 15, MaxFanout: 6, Labels: 20})
		}
	}
	for _, p := range []struct {
		name  string
		price Price
	}{{"count", CountPrice}, {"time", TimePrice}} {
		b.Run(p.name, func(b *testing.B) {
			var s OptScratch
			var cells int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for f := range ts {
					for g := range ts {
						s.Opt(ts[f], ts[g], p.price)
						cells += int64(ts[f].Len() * ts[g].Len())
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
		})
	}
}
