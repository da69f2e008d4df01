package index_test

import (
	"math/rand"
	"sync"
	"testing"

	ted "repro"
	"repro/gen"
	"repro/index"
)

// TestShardContention hammers one index from many goroutines — stable-id
// Puts, Deletes, auto-id Adds, explicit Compacts and CandidatesBelow
// probes, all interleaved — and then checks the quiescent index against a
// fresh build. Run under -race this is the shard-locking contract: probes
// and mutations may overlap arbitrarily without a data race, and the
// final state is exactly the surviving trees. (The CI race job runs the
// whole package with -race, so this test is the contention workload it
// exercises.)
func TestShardContention(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 48
	var trees, alts []*ted.Tree
	for i := 0; i < n; i++ {
		spec := gen.RandomSpec{Size: 1 + rng.Intn(30), MaxDepth: 6, MaxFanout: 4, Labels: 5}
		trees = append(trees, gen.Random(rng.Int63(), spec))
		alts = append(alts, gen.Random(rng.Int63(), spec))
	}
	for name, build := range map[string]func() mutableIndex{
		"histogram": func() mutableIndex { return index.NewHistogram() },
		"pqgram":    func() mutableIndex { return index.NewPQGram(2) },
	} {
		t.Run(name, func(t *testing.T) {
			ix := build()
			for id, tr := range trees {
				ix.Put(id, tr)
			}
			var wg sync.WaitGroup
			// Writers: each owns a disjoint id stripe, so the final
			// state is deterministic even though the interleaving isn't.
			const writers = 4
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						for id := w; id < n; id += writers {
							switch (id + round) % 3 {
							case 0:
								ix.Delete(id)
							case 1:
								ix.Put(id, alts[id])
							default:
								ix.Put(id, trees[id])
							}
						}
					}
				}(w)
			}
			// Probers: sweep every query at a moderate threshold while
			// the writers churn. Results are unusable mid-flight; the
			// point is that they are race- and panic-free.
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					var buf []index.Candidate
					for round := 0; round < 6; round++ {
						for q := 0; q < n; q++ {
							buf = ix.CandidatesBelow(q, 8, buf)
						}
						if p == 0 {
							ix.Compact()
						}
					}
				}(p)
			}
			wg.Wait()

			// Quiescent check: round 2 was the last writer pass, so the
			// final tree under each id is determined by (id+2)%3.
			fresh := build()
			var live []int
			finalTree := map[int]*ted.Tree{}
			for id := 0; id < n; id++ {
				switch (id + 2) % 3 {
				case 0:
					continue // deleted
				case 1:
					finalTree[id] = alts[id]
				default:
					finalTree[id] = trees[id]
				}
				fresh.Put(id, finalTree[id])
				live = append(live, id)
			}
			ix.Compact()
			for _, q := range live {
				want := fresh.CandidatesBelow(q, 8, nil)
				got := ix.CandidatesBelow(q, 8, nil)
				if len(want) != len(got) {
					t.Fatalf("q=%d: %d candidates, want %d", q, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("q=%d: candidate %d = %+v, want %+v", q, i, got[i], want[i])
					}
				}
			}
		})
	}
}
