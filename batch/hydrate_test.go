package batch_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/gen"
	"repro/internal/bounds"
	"repro/internal/gted"
	"repro/internal/strategy"
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

// TestHydrationForeignProfilePanics: a bound profile of another tree —
// even one of the same size — must be rejected like a foreign
// decomposition, not installed to answer every bounded call wrongly.
func TestHydrationForeignProfilePanics(t *testing.T) {
	e := batch.New()
	in := e.Interner()
	ids := func(tr *ted.Tree) []int32 {
		out := make([]int32, tr.Len())
		for v := range out {
			out[v] = int32(in.Intern(tr.Label(v)))
		}
		return out
	}
	tr := ted.MustParse("{a{b}{c}}")
	own := e.PrepareHydrated(tr, batch.Hydration{In: in, IDs: ids(tr), Profile: bounds.NewProfile(tr, ids(tr))})
	if d, ok := e.DistanceBounded(own, own, 0); !ok || d != 0 {
		t.Fatalf("hydrated with its own profile: DistanceBounded = (%v, %v), want (0, true)", d, ok)
	}
	for name, src := range map[string]*ted.Tree{
		"same size":  ted.MustParse("{x{y}{z}}"),
		"other size": ted.MustParse("{a{b}}"),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("hydrating another tree's profile did not panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, "profile") {
					t.Fatalf("panic does not name the profile: %v", r)
				}
			}()
			e.PrepareHydrated(tr, batch.Hydration{In: in, IDs: ids(tr), Profile: bounds.NewProfile(src, ids(src))})
		})
	}
}

// TestHydratedRetainedSize pins the memory a corpus-hydrated PreparedTree
// keeps beyond the artifacts it was handed (label ids, decomposition,
// mirror-leafmost array and bound profile, which the corpus owns): the
// descriptor and the unit model's per-node cost vectors, about 1.2 KB
// for a 40-node tree. Per-tree caches such as the 32-byte-per-node depth
// spectra it once held (1.3 KB more here) must not come back; runners
// build what they need in their arena.
func TestHydratedRetainedSize(t *testing.T) {
	tr := gen.Random(41, gen.RandomSpec{Size: 40, MaxDepth: 8, MaxFanout: 4, Labels: 40})
	src := batch.New()
	e := batch.New(batch.WithInterner(src.Interner()))
	ids := make([]int32, tr.Len())
	for v := range ids {
		ids[v] = int32(src.Interner().Intern(tr.Label(v)))
	}
	h := batch.Hydration{
		In:      src.Interner(),
		IDs:     ids,
		Decomp:  strategy.NewDecomp(tr),
		Lfm:     gted.MirrorLeafmost(tr),
		Profile: bounds.NewProfile(tr, ids),
	}
	const copies = 1000
	keep := make([]*batch.PreparedTree, copies)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = e.PrepareHydrated(tr, h)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / copies
	runtime.KeepAlive(keep)
	t.Logf("retained %d bytes per hydrated 40-node tree", per)
	if per >= 1700 {
		t.Fatalf("a hydrated 40-node tree retains %d bytes, want < 1700", per)
	}
}
