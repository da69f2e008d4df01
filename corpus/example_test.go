package corpus_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	ted "repro"
	"repro/batch"
	"repro/corpus"
)

// A corpus persists trees together with their prepared artifacts and
// index posting lists: Save writes one binary stream, Load brings the
// whole thing back in O(bytes) — no re-parsing, no re-preparation, no
// index rebuild — and joins on the reloaded corpus match the original
// bit for bit.
func ExampleCorpus_Save() {
	c := corpus.New(corpus.WithHistogramIndex())
	for _, s := range []string{"{a{b}{c}}", "{a{b}{d}}", "{x{y}{z}}"} {
		c.Add(ted.MustParse(s))
	}

	var disk bytes.Buffer // stands in for a file; see also SaveFile/LoadFile
	if err := c.Save(&disk); err != nil {
		panic(err)
	}

	// ... a fresh process restarts from the bytes:
	restored, err := corpus.Load(&disk)
	if err != nil {
		panic(err)
	}
	e := restored.Engine() // corpus-attached: hydrates stored artifacts
	matches, _ := restored.Join(e, 2, batch.JoinOptions{})
	for _, m := range matches {
		fmt.Printf("trees %d and %d at distance %g\n", m.I, m.J, m.Dist)
	}
	// Output:
	// trees 0 and 1 at distance 1
}

// An index-accelerated join: instead of enumerating all pairs and
// filtering, candidates are generated from a label-histogram inverted
// index, so only pairs whose label overlap makes a match possible are
// ever visited. The match set is provably identical to the filtered
// enumerating join's.
func ExampleCorpus_Join() {
	c := corpus.New()
	for _, s := range []string{"{a{b}{c}}", "{a{b}}", "{x{y}{z}}"} {
		c.Add(ted.MustParse(s))
	}
	e := c.Engine(batch.WithWorkers(4))
	matches, stats := c.Join(e, 2, batch.JoinOptions{Mode: batch.IndexHistogram})
	for _, m := range matches {
		fmt.Printf("trees %d and %d match (distance %g)\n", m.I, m.J, m.Dist)
	}
	fmt.Printf("%d of 3 pairs even considered (mode %s)\n", stats.Comparisons, stats.Mode)
	// Output:
	// trees 0 and 1 match (distance 1)
	// 1 of 3 pairs even considered (mode histogram)
}

// Open is Load plus durability: mutations append to a write-ahead log
// before they return, so a crash between Saves loses nothing — the next
// Open replays the log over the snapshot. Checkpoint folds the log into
// a fresh snapshot when replay time matters more than write latency.
func ExampleOpen() {
	dir, _ := os.MkdirTemp("", "tedwal")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trees.tedc")

	c, err := corpus.Open(path, corpus.WithHistogramIndex())
	if err != nil {
		panic(err)
	}
	id := c.Add(ted.MustParse("{a{b}{c}}"))
	c.Add(ted.MustParse("{a{b}}"))
	c.Replace(id, ted.MustParse("{a{b}{d}}"))
	// The crash: no Save, no Checkpoint — the log already has every
	// record. (Close stands in for the kernel closing a killed process's
	// descriptors; it flushes nothing the mutations hadn't written.)
	c.Close()

	recovered, err := corpus.Open(path, corpus.WithHistogramIndex())
	if err != nil {
		panic(err)
	}
	defer recovered.Close()
	tr, _ := recovered.Tree(id)
	fmt.Println(recovered.Len(), tr)
	// Output:
	// 2 {a{b}{d}}
}

// Stable IDs survive deletes and replaces: ID 1 keeps naming the same
// logical slot while its tree changes, and deleted IDs are never reused.
func ExampleCorpus_Replace() {
	c := corpus.New()
	c.Add(ted.MustParse("{a}"))
	id := c.Add(ted.MustParse("{b{c}}"))
	c.Replace(id, ted.MustParse("{b{d}}"))
	c.Delete(0)
	next := c.Add(ted.MustParse("{e}")) // 0 is burned; fresh IDs continue upward

	tr, _ := c.Tree(id)
	fmt.Println(tr, id, next)
	// Output:
	// {b{d}} 1 2
}
