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

// TestPrepareHydratedEquivalence: a PreparedTree hydrated from another
// engine's artifacts (shared interner) computes identical distances —
// exact, bounded and joined — to a cold Prepare.
func TestPrepareHydratedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var trees []*ted.Tree
	for i := 0; i < 8; i++ {
		trees = append(trees, gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 5 + rng.Intn(25), MaxDepth: 7, MaxFanout: 4, Labels: 4,
		}))
	}
	// The corpus package is the real hydration producer; here the
	// artifacts come straight from a sibling engine's interner so the
	// batch-layer contract is pinned without the corpus in the loop.
	cold := batch.New()
	in := cold.Interner()
	warm := batch.New(batch.WithInterner(in))

	coldPs := cold.PrepareAll(trees)
	warmPs := make([]*batch.PreparedTree, len(trees))
	for i, tr := range trees {
		ids := make([]int32, tr.Len())
		for v := 0; v < tr.Len(); v++ {
			ids[v] = int32(in.Intern(tr.Label(v))) // already interned by cold
		}
		warmPs[i] = warm.PrepareHydrated(tr, batch.Hydration{In: in, IDs: ids})
	}
	for i := 0; i < len(trees); i++ {
		for j := i + 1; j < len(trees); j++ {
			dc := cold.Distance(coldPs[i], coldPs[j])
			dw := warm.Distance(warmPs[i], warmPs[j])
			if dc != dw {
				t.Fatalf("pair (%d,%d): hydrated distance %v, cold %v", i, j, dw, dc)
			}
			bc, okc := cold.DistanceBounded(coldPs[i], coldPs[j], dc)
			bw, okw := warm.DistanceBounded(warmPs[i], warmPs[j], dc)
			if okc != okw || bc != bw {
				t.Fatalf("pair (%d,%d): bounded (%v,%v) vs (%v,%v)", i, j, bw, okw, bc, okc)
			}
		}
	}
	mc, _ := cold.Join(coldPs, 10, true)
	mw, _ := warm.Join(warmPs, 10, true)
	if len(mc) != len(mw) {
		t.Fatalf("join: %d vs %d matches", len(mw), len(mc))
	}
	for k := range mc {
		if mc[k] != mw[k] {
			t.Fatalf("join match %d: %+v vs %+v", k, mw[k], mc[k])
		}
	}
}

// TestEngineMixingPanicNamesBoth pins the upgraded contract message: the
// panic identifies both engines and points at the hydration path.
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
		if !strings.Contains(msg, "PrepareHydrated") {
			t.Fatalf("panic does not document the hydration path: %q", msg)
		}
	}()
	e1.Distance(p, q)
}

// TestHydrationWrongInternerPanics: artifacts from a foreign interner
// must be rejected, not silently mis-labeled.
func TestHydrationWrongInternerPanics(t *testing.T) {
	e := batch.New()
	foreign := batch.New()
	tr := ted.MustParse("{a{b}}")
	defer func() {
		if recover() == nil {
			t.Fatal("foreign-interner hydration did not panic")
		}
	}()
	e.PrepareHydrated(tr, batch.Hydration{In: foreign.Interner(), IDs: []int32{0, 1}})
}

// TestHydratedRetainedSize pins the memory a corpus keeps per stored
// tree beyond the tree itself: its label ids and the PreparedTree
// hydrated from them, which owns the mirror-leafmost array and the bound
// profile. The ids are held once: the profile and the cost form share
// them, and under the unit model the cost form's delete and insert
// vectors are windows of one vector all trees share. For a 40-node tree
// that is 1,688 bytes. It was 3,679 while each tree stored its
// decomposition cardinalities (3 × 8 bytes a node, now derived per pair
// by the strategy scratch), its own unit-cost vectors (2 × 8 bytes a
// node) and an []int copy of its ids (8 bytes a node).
// Per-tree caches such as the 32-byte-per-node depth spectra a
// PreparedTree once held (1.3 KB more here) must not come back; runners
// build what they need in their arena. Measured on one P with the
// collector off, as TestBoundedBytesPerPair is.
func TestHydratedRetainedSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := gen.Random(41, gen.RandomSpec{Size: 40, MaxDepth: 8, MaxFanout: 4, Labels: 40})
	src := batch.New()
	e := batch.New(batch.WithInterner(src.Interner()))
	for v := 0; v < tr.Len(); v++ {
		src.Interner().Intern(tr.Label(v))
	}
	const copies = 1000
	keep := make([]*batch.PreparedTree, copies)
	var before, after runtime.MemStats
	// Twice: pooled memory that earlier tests left behind survives one
	// collection in the pools' victim caches.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		ids := make([]int32, tr.Len())
		for v := range ids {
			ids[v] = int32(src.Interner().Intern(tr.Label(v)))
		}
		keep[i] = e.PrepareHydrated(tr, batch.Hydration{In: src.Interner(), IDs: ids})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / copies
	runtime.KeepAlive(keep)
	t.Logf("retained %d bytes per stored 40-node tree", per)
	if per > 1700 {
		t.Fatalf("a stored 40-node tree retains %d bytes with its hydration, want ≤ 1,700", per)
	}
}
