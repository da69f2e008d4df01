package bounds

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/tree"
	"repro/internal/zs"
)

// internedProfile profiles t relabeled onto in.
func internedProfile(t *tree.Tree, in *tree.LabelTable) *Profile {
	return NewProfile(t.Relabel(in))
}

// randomLabeled grows a random n-node tree (each node hangs under a
// uniformly chosen earlier one) whose node i is labeled label(i).
func randomLabeled(rng *rand.Rand, n int, label func(i int) string) *tree.Tree {
	nodes := make([]*tree.Node, n)
	for i := range nodes {
		nodes[i] = tree.NewNode(label(i))
		if i > 0 {
			nodes[rng.Intn(i)].Add(nodes[i])
		}
	}
	return tree.Index(nodes[0])
}

// eulerToken is one token of a string-keyed Euler string: a node's
// label, entered or left.
type eulerToken struct {
	label string
	close bool
}

// eulerWalk returns the Euler string of t's subtree at v by a recursive
// depth-first walk over labels.
func eulerWalk(t *tree.Tree, v int, dst []eulerToken) []eulerToken {
	dst = append(dst, eulerToken{label: t.Label(v)})
	for _, c := range t.Children(v) {
		dst = eulerWalk(t, c, dst)
	}
	return append(dst, eulerToken{label: t.Label(v), close: true})
}

// subtreeEuler is SubtreeEulerLower at tau = +Inf computed the slow
// way, from string-keyed Euler strings: for every start position in d's
// string, the edit distance from q's string to each substring beginning
// there, one full DP per start.
func subtreeEuler(q, d *tree.Tree) float64 {
	qs, ds := eulerWalk(q, q.Root(), nil), eulerWalk(d, d.Root(), nil)
	best := len(qs) // the empty substring
	col := make([]int, len(qs)+1)
	for a := range ds {
		for i := range col {
			col[i] = i // the empty substring at a
		}
		for _, tok := range ds[a:] {
			diag := col[0]
			col[0]++
			for i := 1; i < len(col); i++ {
				c := diag
				if qs[i-1] != tok {
					c++
				}
				diag = col[i]
				col[i] = min(c, col[i]+1, col[i-1]+1)
			}
			best = min(best, col[len(qs)])
		}
	}
	return float64(best) / 2
}

// checkProfiledBounds fails unless, with both profiles interned through
// in, every profiled bound of (f, g) equals its string-keyed counterpart
// in both orientations, and both subtree bounds stay at or below the
// Zhang–Shasha distance from the query to every subtree of the data tree.
// The Euler-string bound cut at tau must also exceed tau exactly when
// the full bound does, never exceed the full bound, and equal it when it
// is at most tau.
func checkProfiledBounds(t *testing.T, f, g *tree.Tree, in *tree.LabelTable) {
	t.Helper()
	fp, gp := internedProfile(f, in), internedProfile(g, in)
	var s EulerScratch
	for _, pair := range [][2]*Profile{{fp, gp}, {gp, fp}} {
		a, b := pair[0], pair[1]
		x, y := a.Tree(), b.Tree()
		s.SetQuery(a)
		euler := s.SubtreeEulerLower(b, math.Inf(1))
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"label histogram", LabelHistogramProfiled(a, b), LabelHistogram(x, y)},
			{"binary branch", binaryBranchProfiled(a, b), BinaryBranch(x, y)},
			{"string edit", stringEditProfiled(a, b), StringEdit(x, y)},
			{"lower", LowerProfiled(a, b), Lower(x, y)},
			{"subtree Euler", euler, subtreeEuler(x, y)},
		} {
			if c.got != c.want {
				t.Fatalf("%s bound: profiled %v, string-keyed %v\nF=%s\nG=%s", c.name, c.got, c.want, x, y)
			}
		}
		lb := SubtreeLowerProfiled(a, b)
		row := zs.TreeDists(x, y, cost.Unit{})[x.Root()*y.Len():]
		for w := 0; w < y.Len(); w++ {
			if lb > row[w] || euler > row[w] {
				t.Fatalf("subtree bounds %v (labels), %v (Euler) exceed the distance %v to subtree %s\nQ=%s\nD=%s",
					lb, euler, row[w], y.SubtreeString(w), x, y)
			}
		}
		for _, tau := range []float64{0, 1, euler - 1, euler, math.Inf(1)} {
			cut := s.SubtreeEulerLower(b, tau)
			if (cut > tau) != (euler > tau) || cut > euler || (euler <= tau && cut != euler) {
				t.Fatalf("Euler bound cut at tau %v reads %v, uncut %v\nQ=%s\nD=%s", tau, cut, euler, x, y)
			}
		}
	}
}

// TestProfiledBoundsMatchStringBounds: on random trees whose alphabets
// overlap only in part and include the empty label (which the
// string-keyed branch histogram cannot tell from a missing position),
// every profiled bound is bit-identical to its string-keyed counterpart.
func TestProfiledBoundsMatchStringBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	fAlpha := []string{"", "a", "b", "c"}
	gAlpha := []string{"", "b", "c", "d", "e"}
	for iter := 0; iter < 300; iter++ {
		f := randomLabeled(rng, 1+rng.Intn(25), func(int) string { return fAlpha[rng.Intn(len(fAlpha))] })
		g := randomLabeled(rng, 1+rng.Intn(25), func(int) string { return gAlpha[rng.Intn(len(gAlpha))] })
		checkProfiledBounds(t, f, g, tree.NewLabelTable())
	}
}

// TestPackedHistogramsMatchSorted: on random trees of 1 to 300 nodes
// with repeated and empty labels, the histograms read off one sort of
// packed branch keys equal those read off the comparison sort. With the
// fields lowered to 6 bits, trees whose ids reach 62, the last packable
// one, still pack and agree, and trees holding 63 or 64 take the
// comparison sort.
func TestPackedHistogramsMatchSorted(t *testing.T) {
	const bits = 6
	tab := tree.NewLabelTable()
	for i := range 1<<bits + 1 { // label i has id i, but id 7 is the empty label
		if i == 7 {
			tab.Intern("")
		} else {
			tab.Intern(fmt.Sprint(i))
		}
	}
	empty, _ := tab.ID("")
	packable := []string{"", "0", "1", "5", "62"}
	all := append(slices.Clone(packable), "63", "64")
	rng := rand.New(rand.NewSource(36))
	for iter := 0; iter < 400; iter++ {
		alpha := packable
		if iter%2 == 1 {
			alpha = all
		}
		tr := randomLabeled(rng, 1+rng.Intn(300), func(int) string { return alpha[rng.Intn(len(alpha))] }).Relabel(tab)
		want := newProfile(tr, 0) // no id packs into 0-bit fields
		got := map[string]*Profile{"default width": NewProfile(tr), "6-bit fields": newProfile(tr, bits)}
		if iter%2 == 0 {
			branches := packedBranches(tr, empty, bits)
			got["6-bit fields, packed"] = &Profile{labels: labelHistogram(branches), branches: branches}
		}
		for name, p := range got {
			if !slices.Equal(p.labels, want.labels) || !slices.Equal(p.branches, want.branches) {
				t.Fatalf("%s: labels %v, branches %v; the comparison sort gives %v, %v\nT=%s",
					name, p.labels, p.branches, want.labels, want.branches, tr)
			}
		}
	}
}

// TestProfileRetainedSize pins what a stored tree's profile keeps
// resident: for a 40-node tree with 40 distinct labels (the worst case
// for both histograms) under 1.5 KB — 40 label pairs (8 bytes each), 40
// branch entries (16 bytes), the preorder ids (4 bytes a node) and the
// header; the postorder sequence aliases the tree's own ids. The
// string-keyed maps and []string serializations this layout replaced
// held about 7.5 KB for the same tree.
func TestProfileRetainedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	tr := randomLabeled(rng, 40, func(i int) string { return fmt.Sprintf("label-%02d", i) })
	tr = tr.Relabel(tree.NewLabelTable())

	const copies = 1000
	keep := make([]*Profile, copies)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewProfile(tr)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / copies
	runtime.KeepAlive(keep)
	t.Logf("retained %d bytes per 40-node profile", per)
	if per >= 1500 {
		t.Fatalf("a 40-node profile retains %d bytes, want < 1500", per)
	}
}

// TestProfiledBoundsAllocFree: the two bounds every join pair and every
// top-k data tree pays for are merges of sorted slices and allocate
// nothing; LowerProfiled, which every bounded distance pays for, keeps
// its string-edit rows on the stack for trees this small; and the
// Euler-string bound, which a top-k scan pays for per visited tree once
// its heap is full, reuses its scratch.
func TestProfiledBoundsAllocFree(t *testing.T) {
	in := tree.NewLabelTable()
	f := internedProfile(tree.MustParseBracket("{a{b{c}{d}}{e}{b}}"), in)
	g := internedProfile(tree.MustParseBracket("{a{c}{d{x}}{e{y}}}"), in)
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += LabelHistogramProfiled(f, g) }); n != 0 {
		t.Errorf("LabelHistogramProfiled allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += SubtreeLowerProfiled(f, g) }); n != 0 {
		t.Errorf("SubtreeLowerProfiled allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += LowerProfiled(f, g) }); n != 0 {
		t.Errorf("LowerProfiled allocates %v times per call", n)
	}
	var s EulerScratch
	s.SetQuery(f)
	s.SubtreeEulerLower(g, math.Inf(1)) // warm the scratch
	if n := testing.AllocsPerRun(100, func() { sink += s.SubtreeEulerLower(g, math.Inf(1)) }); n != 0 {
		t.Errorf("SubtreeEulerLower allocates %v times per call with a warm scratch", n)
	}
	_ = sink
}
