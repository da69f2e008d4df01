package gted

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// nearPairs are the near pairs of the kernel cell pin: the same shape
// family at slightly different sizes, so the exact distance (hence the
// interesting cutoff) is far below the tree size and the band is thin.
func nearPairs(n int) []struct {
	name string
	f, g *tree.Tree
} {
	return []struct {
		name string
		f, g *tree.Tree
	}{
		{"chain", treegen.LeftBranch(n), treegen.LeftBranch(n + 6)},
		{"binary", treegen.FullBinary(n), treegen.FullBinary(n + 8)},
		{"zigzag", treegen.ZigZag(n), treegen.ZigZag(n + 6)},
		{"mixed", treegen.Mixed(n), treegen.Mixed(n + 8)},
	}
}

// TestKernelCellsPinned pins the bounded kernel's work on the near pairs
// at n = 120 under the ZhangL strategy (every keyroot runs ΔL, the
// kernel with both row layouts): subproblems evaluated, row cells
// materialized and rows stored band-compressed, at a tight cutoff (d+2,
// where thin bands compress most rows) and a loose one (d+n/2, where
// every band covers its row). Any change to the band, its pricing or the
// per-keyroot layout rule moves one of these numbers.
func TestKernelCellsPinned(t *testing.T) {
	const n = 120
	type cells struct{ subs, rowCells, compressed int64 }
	want := map[string][2]cells{
		"chain":  {{13651, 46679, 121}, {27165, 59989, 0}},
		"binary": {{143818, 228983, 484}, {177163, 250158, 0}},
		"zigzag": {{2565353, 3316414, 21588}, {3773900, 4174333, 0}},
		"mixed":  {{200247, 306421, 968}, {236760, 322998, 0}},
	}
	s := strategy.ZhangL()
	for _, p := range nearPairs(n) {
		d := New(p.f, p.g, cost.Unit{}, s).Run()
		for i, tau := range []float64{d + 2, d + n/2} {
			r := New(p.f, p.g, cost.Unit{}, s)
			if bd, ok := r.RunBounded(tau); !ok || bd != d {
				t.Fatalf("%s tau=%v: RunBounded = (%v, %v), exact %v", p.name, tau, bd, ok, d)
			}
			st := r.Stats()
			got := cells{st.Subproblems, st.RowCells, st.CompressedRows}
			if got != want[p.name][i] {
				t.Errorf("%s tau=%v: (subproblems, row cells, compressed rows) = %v, want %v",
					p.name, tau, got, want[p.name][i])
			}
		}
	}
}

// TestSparseRowsCompress pins the point of the compressed layout: on a
// near pair at a narrow cutoff the run stores rows band-compressed and
// materializes fewer row cells than at a wide cutoff, where every band
// covers its row and every keyroot keeps full-width rows.
func TestSparseRowsCompress(t *testing.T) {
	f := treegen.Mixed(120)
	g := treegen.Mixed(128)
	s := strategy.ZhangL()
	d := New(f, g, cost.Unit{}, s).Run()

	run := func(tau float64) Stats {
		r := New(f, g, cost.Unit{}, s)
		if bd, ok := r.RunBounded(tau); !ok || bd != d {
			t.Fatalf("near pair at tau=%v did not resolve exactly: (%v, %v), d=%v", tau, bd, ok, d)
		}
		return r.Stats()
	}
	narrow, wide := run(d+2), run(d+60)
	if narrow.CompressedRows == 0 {
		t.Fatal("narrow-band run materialized no compressed rows")
	}
	if wide.CompressedRows != 0 {
		t.Fatalf("wide-band run compressed %d rows; its bands cover their rows", wide.CompressedRows)
	}
	if narrow.RowCells >= wide.RowCells {
		t.Fatalf("compressed rows saved nothing: %d cells vs full-width %d", narrow.RowCells, wide.RowCells)
	}
}

// TestSparseRowsFreshArenaBytes is the allocation half of the compress
// test: a cold (fresh-arena) bounded run at a narrow cutoff must
// allocate strictly fewer bytes than one at a wide cutoff, because the
// row slab it grows is band-sized instead of row-width-sized.
// TotalAlloc is cumulative, so GC cannot skew the deltas.
func TestSparseRowsFreshArenaBytes(t *testing.T) {
	f := treegen.Mixed(120)
	g := treegen.Mixed(128)
	s := strategy.ZhangL()
	d := New(f, g, cost.Unit{}, s).Run()

	bytesOf := func(tau float64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(f, g, cost.Unit{}, s).RunBounded(tau)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	wide := bytesOf(d + 60)
	narrow := bytesOf(d + 2)
	if narrow >= wide {
		t.Fatalf("cold narrow-band run allocated %d bytes, wide-band %d — compression saved nothing", narrow, wide)
	}
}

// TestDepthSpectraExact cross-checks the shift-accumulate spectra
// builder against a brute-force depth census on random trees.
func TestDepthSpectraExact(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const B = SpectraBuckets
	for iter := 0; iter < 25; iter++ {
		tr := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(60), MaxDepth: 12, MaxFanout: 4, Labels: 2})
		spec := make([]int32, tr.Len()*B)
		depthSpectraInto(tr, spec)

		// Brute force: for each root v, walk its subtree counting nodes
		// per relative depth, then fold into suffix counts.
		var walk func(v, depth int, counts []int32)
		walk = func(v, depth int, counts []int32) {
			d := depth
			if d > B-1 {
				d = B - 1
			}
			for t := 0; t <= d; t++ {
				counts[t]++
			}
			for _, c := range tr.Children(v) {
				walk(c, depth+1, counts)
			}
		}
		for v := 0; v < tr.Len(); v++ {
			want := make([]int32, B)
			walk(v, 0, want)
			for tt := 0; tt < B; tt++ {
				if spec[v*B+tt] != want[tt] {
					t.Fatalf("iter %d node %d bucket %d: spectra %d, brute force %d\nT=%s",
						iter, v, tt, spec[v*B+tt], want[tt], tr)
				}
			}
		}
	}
}
