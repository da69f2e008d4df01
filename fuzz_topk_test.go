package ted_test

import (
	"math/rand"
	"testing"

	ted "repro"
	"repro/gen"
)

// FuzzTopKAcross fuzzes the multi-tree top-k against its definition,
// perTreeMerge. The corpus is small and drawn from seed over
// two alphabets — random trees labelled l0, l1, l2 and parse-shaped trees
// labelled S, NP, … — with mix choosing each tree's alphabet and which
// trees repeat, so label bounds and distances tie across trees. The
// query is a bracket string, free to share labels with either alphabet,
// both or neither; k ranges past the corpus's subtree count. The last two
// seeds query random-shaped corpora in their own alphabet at small k, so
// visited trees whose Euler-string bound exceeds the k-th best are
// skipped.
//
// Run continuously with: go test -fuzz=FuzzTopKAcross
func FuzzTopKAcross(f *testing.F) {
	f.Add("{l0{l1}{l2}}", int64(1), uint8(5), uint8(0x0f), uint16(3))
	f.Add("{S{NP{DT}{NN}}{VP{VB}}}", int64(2), uint8(7), uint8(0xa5), uint16(1))
	f.Add("{NP{l1}{DT}}", int64(3), uint8(4), uint8(0x33), uint16(200))
	f.Add("{x}", int64(4), uint8(6), uint8(0xff), uint16(2))
	f.Add("{l0}", int64(5), uint8(3), uint8(0x00), uint16(0))
	f.Add("{l0{l1{l2}}}", int64(6), uint8(7), uint8(0x00), uint16(0))
	f.Add("{l1{l0{l2}{l1}}{l2}}", int64(9), uint8(7), uint8(0x00), uint16(1))

	f.Fuzz(func(t *testing.T, qs string, seed int64, n, mix uint8, kk uint16) {
		query, err := ted.Parse(qs)
		if err != nil || query.Len() > 20 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var data []*ted.Tree
		for i := 0; i < 1+int(n%8); i++ {
			size := 1 + rng.Intn(18)
			if mix&(1<<i) != 0 {
				data = append(data, gen.TreeBankLike(rng.Int63(), size))
			} else {
				data = append(data, gen.Random(rng.Int63(), gen.RandomSpec{Size: size, MaxDepth: 5, MaxFanout: 3, Labels: 3}))
			}
			if mix&(1<<((i+3)%8)) != 0 && i%3 == 0 {
				data = append(data, data[rng.Intn(len(data))])
			}
		}
		all := 0
		for _, d := range data {
			all += d.Len()
		}
		k := 1 + int(kk)%(all+2)

		want := perTreeMerge(query, data, k)
		got := ted.TopKSubtreesAcross(query, data, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d matches, want %d\nQ=%s", k, len(got), len(want), qs)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d match %d: got %+v want %+v\nQ=%s", k, i, got[i], want[i], qs)
			}
		}
	})
}
