package corpus_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
)

func randomTrees(seed int64, n, size int) []*ted.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := []*ted.Tree{
		gen.LeftBranch(size),
		gen.FullBinary(size),
	}
	for len(out) < n {
		base := gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 1 + rng.Intn(size), MaxDepth: 8, MaxFanout: 5, Labels: 6,
		})
		out = append(out, base)
		if len(out) < n {
			out = append(out, gen.RenameSome(base, 2, rng.Int63()))
		}
	}
	return out
}

func TestCorpusStoreSemantics(t *testing.T) {
	trees := randomTrees(1, 10, 20)
	c := corpus.New(corpus.WithHistogramIndex())
	var ids []corpus.ID
	for _, tr := range trees {
		ids = append(ids, c.Add(tr))
	}
	for i, id := range ids {
		if int64(id) != int64(i) {
			t.Fatalf("Add assigned id %d, want %d", id, i)
		}
		got, ok := c.Tree(id)
		if !ok || got.String() != trees[i].String() {
			t.Fatalf("Tree(%d) lost the stored tree", id)
		}
	}
	if c.Len() != len(trees) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(trees))
	}

	if !c.Delete(ids[3]) || c.Delete(ids[3]) {
		t.Fatal("Delete should succeed once and then report absence")
	}
	if _, ok := c.Tree(ids[3]); ok {
		t.Fatal("deleted tree still readable")
	}
	// Deleted IDs are never reused.
	if id := c.Add(trees[3]); int64(id) != int64(len(trees)) {
		t.Fatalf("Add after delete assigned %d, want %d", id, len(trees))
	}
	if c.Replace(ids[3], trees[0]) {
		t.Fatal("Replace of a deleted id should fail")
	}
	if !c.Replace(ids[2], trees[5]) {
		t.Fatal("Replace of a live id should succeed")
	}
	if got, _ := c.Tree(ids[2]); got.String() != trees[5].String() {
		t.Fatal("Replace did not swap the tree")
	}
	want := []corpus.ID{0, 1, 2, 4, 5, 6, 7, 8, 9, 10}
	got := c.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

// TestCorpusJoinMatchesBatch pins the corpus join against the plain
// batch engine across modes, including after deletes and replaces.
func TestCorpusJoinMatchesBatch(t *testing.T) {
	trees := randomTrees(2, 12, 24)
	c := corpus.New(corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2))
	for _, tr := range trees {
		c.Add(tr)
	}
	c.Delete(5)
	c.Replace(7, trees[1])

	// The surviving collection, in ID order.
	var live []*ted.Tree
	var liveIDs []corpus.ID
	for _, id := range c.IDs() {
		tr, _ := c.Tree(id)
		live = append(live, tr)
		liveIDs = append(liveIDs, id)
	}

	e := c.Engine()
	ref := batch.New()
	refPs := ref.PrepareAll(live)
	for _, tau := range []float64{0, 3, 9.5, math.Inf(1)} {
		wantMs, _ := engineJoin(ref, refPs, tau, true)
		for _, mode := range []batch.IndexMode{batch.IndexAuto, batch.IndexEnumerate, batch.IndexHistogram, batch.IndexPQGram} {
			ms, st := c.Join(e, tau, batch.JoinOptions{Mode: mode})
			if len(ms) != len(wantMs) {
				t.Fatalf("tau=%v mode=%v: %d matches, want %d", tau, mode, len(ms), len(wantMs))
			}
			for k, m := range ms {
				w := wantMs[k]
				if m.I != liveIDs[w.I] || m.J != liveIDs[w.J] || m.Dist != w.Dist {
					t.Fatalf("tau=%v mode=%v: match %d = %+v, want (%v, %v, %v)",
						tau, mode, k, m, liveIDs[w.I], liveIDs[w.J], w.Dist)
				}
			}
			_ = st
		}
	}
}

// TestCorpusTopKAcross pins corpus top-k against the batch engine.
func TestCorpusTopKAcross(t *testing.T) {
	trees := randomTrees(3, 8, 18)
	query := trees[0]
	c := corpus.New()
	for _, tr := range trees[1:] {
		c.Add(tr)
	}
	e := c.Engine()
	ms, _ := c.TopKAcross(e, e.Prepare(query), 5)

	ref := batch.New()
	wantMs, _, _ := ref.TopKAcross(context.Background(), ref.Prepare(query), ref.PrepareAll(trees[1:]), 5)
	if len(ms) != len(wantMs) {
		t.Fatalf("%d results, want %d", len(ms), len(wantMs))
	}
	for i, m := range ms {
		w := wantMs[i]
		if int64(m.Tree) != int64(w.Tree) || m.Root != w.Root || m.Dist != w.Dist {
			t.Fatalf("result %d = %+v, want %+v", i, m, w)
		}
	}
}

// TestFingerprint: a loaded copy fingerprints like its source, and every
// mutation kind moves the fingerprint, also after a cached read — a
// cache that outlived a mutation would let a gateway deal ranges over
// corpora that no longer agree.
func TestFingerprint(t *testing.T) {
	trees := randomTrees(6, 6, 12)
	c := corpus.New()
	for _, tr := range trees {
		c.Add(tr)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := corpus.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, fp := c.Fingerprint()
	if cn, cfp := cp.Fingerprint(); n != len(trees) || cn != n || cfp != fp {
		t.Fatalf("loaded copy: %d trees, %x; source %d, %x", cn, cfp, n, fp)
	}
	seen := map[uint64]bool{fp: true}
	for name, mutate := range map[string]func(*corpus.Corpus){
		"add":     func(c *corpus.Corpus) { c.Add(trees[0]) },
		"replace": func(c *corpus.Corpus) { c.Replace(1, trees[2]) },
		"delete":  func(c *corpus.Corpus) { c.Delete(3) },
	} {
		mutate(c)
		_, fp := c.Fingerprint()
		if seen[fp] {
			t.Fatalf("%s: fingerprint %x unchanged by the mutation", name, fp)
		}
		seen[fp] = true
		mutate(cp)
		if _, cfp := cp.Fingerprint(); cfp != fp {
			t.Fatalf("%s: copy %x after the same mutation, source %x", name, cfp, fp)
		}
	}
}

// TestForeignEnginePanics pins the corpus-compatibility check that
// replaced the engine-binding check.
func TestForeignEnginePanics(t *testing.T) {
	c := corpus.New()
	c.Add(ted.MustParse("{a{b}}"))
	defer func() {
		if recover() == nil {
			t.Fatal("join with a non-attached engine did not panic")
		}
	}()
	c.Join(batch.New(), 3, batch.JoinOptions{})
}

// TestEnginesShareStoredTrees: two engines attached to one corpus both
// prepare the same stored trees, and their distances agree.
func TestEnginesShareStoredTrees(t *testing.T) {
	trees := randomTrees(4, 6, 16)
	c := corpus.New()
	var ids []corpus.ID
	for _, tr := range trees {
		ids = append(ids, c.Add(tr))
	}
	e1 := c.Engine()
	e2 := c.Engine(batch.WithWorkers(2))
	p10, _ := c.Prepared(e1, ids[0])
	p11, _ := c.Prepared(e1, ids[1])
	p20, _ := c.Prepared(e2, ids[0])
	p21, _ := c.Prepared(e2, ids[1])
	d1 := e1.Distance(p10, p11)
	d2 := e2.Distance(p20, p21)
	want := ted.Distance(trees[0], trees[1])
	if d1 != want || d2 != want {
		t.Fatalf("prepared distances %v/%v, want %v", d1, d2, want)
	}
}
