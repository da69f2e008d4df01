package corpus_test

import (
	"context"
	"sync"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
)

// TestWarmThenWrites: a corpus written to after Warm joins and answers
// top-k exactly as a plain batch engine over its live trees. Each round's
// writes leave entries without a preparation, so the round's first calls
// take snapshotPrepared's write-locked path, which prepares those
// entries on the engine's four workers; two joins and two top-k queries
// run at once, so they race to take it.
func TestWarmThenWrites(t *testing.T) {
	trees := randomTrees(11, 48, 24)
	c := corpus.New(corpus.WithHistogramIndex())
	for _, tr := range trees[:24] {
		c.Add(tr)
	}
	e := c.Engine(batch.WithWorkers(4))
	c.Warm(e)
	query := e.Prepare(trees[5])

	for round := range 3 {
		for k := range 8 {
			c.Add(trees[24+8*round+k])
		}
		c.Delete(corpus.ID(3 + round))
		c.Replace(corpus.ID(10+round), trees[40+round])

		var live []*ted.Tree
		ids := c.IDs()
		for _, id := range ids {
			tr, _ := c.Tree(id)
			live = append(live, tr)
		}
		ref := batch.New(batch.WithWorkers(1))
		refPs := ref.PrepareAll(live)
		wantJoin, _ := engineJoin(ref, refPs, 5, true)
		if len(wantJoin) == 0 {
			t.Fatalf("round %d: the reference join matches nothing, so the check is empty", round)
		}
		wantTop, _, _ := ref.TopKAcross(context.Background(), ref.Prepare(trees[5]), refPs, 6)

		var wg sync.WaitGroup
		for range 2 {
			wg.Add(2)
			go func() {
				defer wg.Done()
				ms, _ := c.Join(e, 5, batch.JoinOptions{})
				if len(ms) != len(wantJoin) {
					t.Errorf("round %d: join found %d matches, want %d", round, len(ms), len(wantJoin))
					return
				}
				for k, m := range ms {
					w := wantJoin[k]
					if m.I != ids[w.I] || m.J != ids[w.J] || m.Dist != w.Dist {
						t.Errorf("round %d: join match %d = %+v, want (%v, %v, %v)", round, k, m, ids[w.I], ids[w.J], w.Dist)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				ms, _ := c.TopKAcross(e, query, 6)
				if len(ms) != len(wantTop) {
					t.Errorf("round %d: top-k found %d matches, want %d", round, len(ms), len(wantTop))
					return
				}
				for k, m := range ms {
					w := wantTop[k]
					if m.Tree != ids[w.Tree] || m.Root != w.Root || m.Dist != w.Dist {
						t.Errorf("round %d: top-k match %d = %+v, want (%v, %v, %v)", round, k, m, ids[w.Tree], w.Root, w.Dist)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
