// corpus: the persistent-corpus walkthrough. A collection of trees is
// stored in a corpus.Corpus — stable IDs, interned label ids, an
// incrementally maintained inverted index — saved to disk, reloaded in
// what stands in for a fresh process, and joined again: the reloaded
// join reproduces the original match set bit for bit while skipping
// parsing and label interning (the index is rebuilt from the stored
// label ids). The walkthrough then mutates the corpus (Delete/Replace)
// and shows the index staying in sync through its tombstoned posting
// lists.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
)

func main() {
	// A corpus of random trees with planted near-duplicate clusters, so
	// the join has true matches to find.
	var trees []*ted.Tree
	for i := int64(0); i < 12; i++ {
		base := gen.Random(100+i, gen.RandomSpec{Size: 60, MaxDepth: 10, MaxFanout: 5, Labels: 12})
		trees = append(trees, base, gen.RenameSome(base, 3, 200+i))
	}
	tau := 8.0

	// Build: every Add interns the tree's labels once into the corpus's
	// label table and indexes it; the first join prepares each tree for
	// the engine, pricing its costs and deriving its bound profile.
	buildStart := time.Now()
	c := corpus.New(corpus.WithHistogramIndex())
	for _, t := range trees {
		c.Add(t)
	}
	e := c.Engine(batch.WithWorkers(4))
	matches, st := c.Join(e, tau, batch.JoinOptions{})
	fmt.Printf("built corpus of %d trees in %v\n", c.Len(), time.Since(buildStart).Round(time.Microsecond))
	fmt.Printf("join: %d matches from %d candidates (%d exact computations)\n\n",
		len(matches), st.Comparisons, st.ExactComputed)

	// Persist: one binary stream holds the trees, their label ids and the
	// index's posting lists.
	dir, err := os.MkdirTemp("", "tedcorpus")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "corpus.tedc")
	if err := c.SaveFile(path); err != nil {
		panic(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("saved to %s: %d bytes (%d bytes/tree)\n", filepath.Base(path), info.Size(), info.Size()/int64(c.Len()))

	// Reload — the "restarted server": Load decodes in O(bytes), each
	// tree keeping its stored label ids, rebuilds the index from those
	// ids, and the corpus-attached engine prepares the trees from them
	// instead of re-interning labels.
	loadStart := time.Now()
	c2, err := corpus.LoadFile(path)
	if err != nil {
		panic(err)
	}
	e2 := c2.Engine(batch.WithWorkers(4))
	matches2, _ := c2.Join(e2, tau, batch.JoinOptions{})
	fmt.Printf("reloaded + rejoined in %v\n", time.Since(loadStart).Round(time.Microsecond))

	same := len(matches) == len(matches2)
	for i := 0; same && i < len(matches); i++ {
		same = matches[i] == matches2[i]
	}
	fmt.Printf("match sets identical: %v\n\n", same)

	// Incremental maintenance: IDs are stable, so deleting and replacing
	// trees leaves every other ID — and the posting lists, via
	// tombstones — intact.
	victim := matches2[0].I
	c2.Delete(victim)
	if t0, ok := c2.Tree(matches2[0].J); ok {
		c2.Replace(matches2[0].J, gen.RenameSome(t0, 1, 999))
	}
	matches3, _ := c2.Join(e2, tau, batch.JoinOptions{})
	fmt.Printf("after Delete(%d) + Replace(%d): %d matches (was %d)\n",
		victim, matches2[0].J, len(matches3), len(matches2))
	for _, m := range matches3 {
		if m.I == victim || m.J == victim {
			fmt.Println("BUG: deleted tree still matching")
		}
	}
}
