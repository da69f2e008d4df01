package corpus_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
)

// TestCorpusContention hammers one corpus from many goroutines —
// Add/Delete/Replace writers against concurrent Join, TopKAcross, Tree,
// IDs and Len readers — and then checks the quiescent corpus against a
// deterministic replay. Run under -race this is the corpus-level
// locking contract, which is also the maintained indexes' only
// synchronization (the index package's contention test checks the same
// rule on a bare index; this one covers the store, the prepared-tree
// cache and the maintained indexes together). The WAL variant runs the
// same schedule on a corpus opened with Open, so log appends interleave
// with reads too.
func TestCorpusContention(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 24
	var trees, alts []*ted.Tree
	for i := 0; i < n; i++ {
		spec := gen.RandomSpec{Size: 4 + rng.Intn(16), MaxDepth: 6, MaxFanout: 4, Labels: 6}
		trees = append(trees, gen.Random(rng.Int63(), spec))
		alts = append(alts, gen.Random(rng.Int63(), spec))
	}

	const rounds = 3
	// mutate applies the scripted op for (tree i, round) to any target.
	// Writers and the sequential expected-state simulator share it, so
	// the deterministic final state is whatever these ops actually do
	// (in particular: Replace after Delete is a no-op, never a
	// resurrection, and ids with (i+r)%4 == 3 skip the round — which is
	// what leaves some trees alive at the end).
	mutate := func(i, round int, del func(), repl func(*ted.Tree)) {
		switch (i + round) % 4 {
		case 0:
			del()
		case 1:
			repl(alts[i])
		case 2:
			repl(trees[i])
		}
	}

	run := func(t *testing.T, c *corpus.Corpus) {
		ids := make([]corpus.ID, n)
		for i, tr := range trees {
			ids[i] = c.Add(tr)
		}
		e := c.Engine(batch.WithWorkers(2))
		query := e.Prepare(trees[0])

		var wg sync.WaitGroup
		// Writers own disjoint id stripes: the final state is
		// deterministic even though interleavings are not.
		const writers = 3
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					for i := w; i < n; i += writers {
						mutate(i, round,
							func() { c.Delete(ids[i]) },
							func(tr *ted.Tree) { c.Replace(ids[i], tr) })
					}
				}
			}(w)
		}
		// Readers: joins, top-k and point lookups while the writers
		// churn. Mid-flight results reflect some consistent snapshot;
		// the contract under test is race- and panic-freedom.
		for p := 0; p < 3; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for round := 0; round < 2; round++ {
					switch p {
					case 0:
						c.Join(e, 6, batch.JoinOptions{})
					case 1:
						c.TopKAcross(e, query, 3)
					default:
						for _, id := range c.IDs() {
							c.Tree(id)
						}
						c.Len()
					}
				}
			}(p)
		}
		wg.Wait()

		// Quiescent check: replay the same schedule sequentially (stripes
		// are disjoint, so per-id op order is what each writer did).
		want := corpus.New()
		wantIDs := make([]corpus.ID, n)
		for i, tr := range trees {
			wantIDs[i] = want.Add(tr)
		}
		for round := 0; round < rounds; round++ {
			for i := 0; i < n; i++ {
				mutate(i, round,
					func() { want.Delete(wantIDs[i]) },
					func(tr *ted.Tree) { want.Replace(wantIDs[i], tr) })
			}
		}
		got, expect := corpusState(c), corpusState(want)
		if !reflect.DeepEqual(got, expect) {
			t.Fatalf("quiescent corpus %v, want %v", got, expect)
		}
		// And the maintained index must agree with the store: an indexed
		// join equals an enumerated one.
		if c.HasHistogramIndex() {
			indexed, _ := c.Join(e, 5, batch.JoinOptions{Mode: batch.IndexHistogram})
			enum, _ := c.Join(e, 5, batch.JoinOptions{Mode: batch.IndexEnumerate})
			if !reflect.DeepEqual(indexed, enum) {
				t.Fatalf("post-contention indexed join %v, enumerated %v", indexed, enum)
			}
		}
	}

	t.Run("memory", func(t *testing.T) {
		run(t, corpus.New(corpus.WithHistogramIndex()))
	})
	t.Run("wal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "race.tedc")
		c, err := corpus.Open(path, corpus.WithHistogramIndex())
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		run(t, c)
		if err := c.Sync(); err != nil {
			t.Fatalf("sync after contention: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// The log absorbed the whole schedule: a reopen must reproduce
		// the quiescent state exactly.
		rc, err := corpus.Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer rc.Close()
		if got, want := corpusState(rc), corpusState(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed corpus diverges from the quiescent one")
		}
	})
}
