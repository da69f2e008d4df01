package batch_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/gen"
)

// TestPrepareSharedTableEquivalence: trees relabeled onto a sibling
// engine's label table, as a corpus keeps its stored trees, prepare
// without interning and compute identical distances — exact, bounded and
// joined — to a cold Prepare.
func TestPrepareSharedTableEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var trees []*ted.Tree
	for i := 0; i < 8; i++ {
		trees = append(trees, gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 5 + rng.Intn(25), MaxDepth: 7, MaxFanout: 4, Labels: 4,
		}))
	}
	// The corpus package is the real producer of trees on a shared
	// table; here they are relabeled onto a sibling engine's table so
	// the batch-layer contract is pinned without the corpus in the loop.
	cold := batch.New()
	tab := cold.LabelTable()
	warm := batch.New(batch.WithLabelTable(tab))

	coldPs := cold.PrepareAll(trees)
	warmPs := make([]*batch.PreparedTree, len(trees))
	for i, tr := range trees {
		stored := tr.Relabel(tab)
		warmPs[i] = warm.Prepare(stored)
		if warmPs[i].Tree() != stored {
			t.Fatalf("tree %d: Prepare copied a tree already on the engine's table", i)
		}
	}
	for i := 0; i < len(trees); i++ {
		for j := i + 1; j < len(trees); j++ {
			dc := cold.Distance(coldPs[i], coldPs[j])
			dw := warm.Distance(warmPs[i], warmPs[j])
			if dc != dw {
				t.Fatalf("pair (%d,%d): shared-table distance %v, cold %v", i, j, dw, dc)
			}
			bc, okc := cold.DistanceBounded(coldPs[i], coldPs[j], dc)
			bw, okw := warm.DistanceBounded(warmPs[i], warmPs[j], dc)
			if okc != okw || bc != bw {
				t.Fatalf("pair (%d,%d): bounded (%v,%v) vs (%v,%v)", i, j, bw, okw, bc, okc)
			}
		}
	}
	mc, _ := joinSorted(cold, coldPs, 10, true)
	mw, _ := joinSorted(warm, warmPs, 10, true)
	if len(mc) != len(mw) {
		t.Fatalf("join: %d vs %d matches", len(mw), len(mc))
	}
	for k := range mc {
		if mc[k] != mw[k] {
			t.Fatalf("join match %d: %+v vs %+v", k, mw[k], mc[k])
		}
	}
}

// TestEngineMixingPanicNamesBoth pins the contract message: the panic
// identifies both engines and says which engine to prepare with.
func TestEngineMixingPanicNamesBoth(t *testing.T) {
	e1, e2 := batch.New(), batch.New()
	p := e1.Prepare(ted.MustParse("{a{b}}"))
	q := e2.Prepare(ted.MustParse("{a{c}}"))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mixing engines did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "engine") || strings.Count(msg, "0x") < 2 {
			t.Fatalf("panic does not name both engines: %q", msg)
		}
		if !strings.Contains(msg, "prepare the tree with the engine") {
			t.Fatalf("panic does not say which engine to prepare with: %q", msg)
		}
	}()
	e1.Distance(p, q)
}

// TestHydratedRetainedSize pins the memory a corpus keeps per stored
// tree beyond the tree itself: the PreparedTree of a tree already on the
// engine's label table, with its cost form and bound profile. The tree's
// label ids are held once, by the tree: the cost form and the profile
// share them, and under the unit model the cost form's delete and insert
// vectors are windows of one vector all trees share. For a 40-node tree
// that is 1,320 bytes. It was 1,688 while the corpus kept its own copy
// of the ids and each preparation a 4-byte-a-node mirror-leafmost array,
// and 3,679 while each tree also stored its decomposition cardinalities
// (3 × 8 bytes a node, now derived per pair by the strategy scratch),
// its own unit-cost vectors (2 × 8 bytes a node) and an []int copy of
// its ids (8 bytes a node). Per-tree caches such as the
// 32-byte-per-node depth spectra a PreparedTree once held (1.3 KB more
// here) must not come back; runners build what they need in their
// arena. Measured on one P with the collector off, as
// TestBoundedBytesPerPair is.
func TestHydratedRetainedSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := batch.New()
	tr := gen.Random(41, gen.RandomSpec{Size: 40, MaxDepth: 8, MaxFanout: 4, Labels: 40}).Relabel(e.LabelTable())
	const copies = 1000
	keep := make([]*batch.PreparedTree, copies)
	var before, after runtime.MemStats
	// Twice: pooled memory that earlier tests left behind survives one
	// collection in the pools' victim caches.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = e.Prepare(tr)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / copies
	runtime.KeepAlive(keep)
	t.Logf("retained %d bytes per stored 40-node tree", per)
	if per > 1260 {
		t.Fatalf("a stored 40-node tree retains %d bytes with its preparation, want ≤ 1,260", per)
	}
}
