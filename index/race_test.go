package index_test

import (
	"math/rand"
	"sync"
	"testing"

	ted "repro"
	"repro/gen"
	"repro/index"
	"repro/internal/tree"
)

// TestOwnerLockContention drives one index the way its owner does:
// writers Put and Delete under a sync.RWMutex write lock, one prober also
// compacts under it, and probers run CandidatesBelow under the read lock,
// so probes overlap each other but never a mutation. Then probers alone
// hit the quiescent index with no lock at all. Run under -race this is
// the synchronization contract of Histogram and PQGram: mutations need
// the owner's exclusion, and concurrent probes share nothing unguarded
// (the lazily rebuilt size order has a lock of its own). The final state
// must be exactly the surviving trees. (The CI race job runs the whole
// package with -race, so this test is the contention workload it
// exercises.)
func TestOwnerLockContention(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 48
	var trees, alts []*ted.Tree
	for i := 0; i < n; i++ {
		spec := gen.RandomSpec{Size: 1 + rng.Intn(30), MaxDepth: 6, MaxFanout: 4, Labels: 5}
		trees = append(trees, gen.Random(rng.Int63(), spec))
		alts = append(alts, gen.Random(rng.Int63(), spec))
	}
	for name, build := range map[string]func() mutableIndex{
		"histogram": func() mutableIndex { return index.NewHistogram(tree.NewLabelTable()) },
		"pqgram":    func() mutableIndex { return index.NewPQGram(tree.NewLabelTable(), 2) },
	} {
		t.Run(name, func(t *testing.T) {
			ix := build()
			for id, tr := range trees {
				ix.Put(id, tr)
			}
			var mu sync.RWMutex
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
							mu.Lock()
							switch (id + round) % 3 {
							case 0:
								ix.Delete(id)
							case 1:
								ix.Put(id, alts[id])
							default:
								ix.Put(id, trees[id])
							}
							mu.Unlock()
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
							mu.RLock()
							buf = ix.CandidatesBelow(q, 8, buf)
							mu.RUnlock()
						}
						if p == 0 {
							mu.Lock()
							ix.Compact()
							mu.Unlock()
						}
					}
				}(p)
			}
			wg.Wait()

			// Quiescent check: round 2 was the last writer pass, so the
			// final tree under each id is determined by (id+2)%3.
			fresh := build()
			var live []int
			for id := 0; id < n; id++ {
				switch (id + 2) % 3 {
				case 0:
					continue // deleted
				case 1:
					fresh.Put(id, alts[id])
				default:
					fresh.Put(id, trees[id])
				}
				live = append(live, id)
			}
			check := func(report func(string, ...any)) {
				for _, q := range live {
					want := fresh.CandidatesBelow(q, 8, nil)
					got := ix.CandidatesBelow(q, 8, nil)
					if len(want) != len(got) {
						report("q=%d: %d candidates, want %d", q, len(got), len(want))
						return
					}
					for i := range want {
						if want[i] != got[i] {
							report("q=%d: candidate %d = %+v, want %+v", q, i, got[i], want[i])
							return
						}
					}
				}
			}
			// Lock-free phase: with no mutation in flight, probes need no
			// lock. fresh has never been probed, so these probes also
			// race to build its size order.
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					check(t.Errorf)
				}()
			}
			wg.Wait()
			ix.Compact()
			check(t.Fatalf)
		})
	}
}
