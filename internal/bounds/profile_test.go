package bounds

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/tree"
	"repro/internal/zs"
)

// internedProfile profiles t with label ids assigned by in.
func internedProfile(t *tree.Tree, in *cost.Interner) *Profile {
	ids := make([]int32, t.Len())
	for v := range ids {
		ids[v] = int32(in.Intern(t.Label(v)))
	}
	return NewProfile(t, ids)
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

// checkProfiledBounds fails unless, with both profiles interned through
// in, every profiled bound of (f, g) equals its string-keyed counterpart
// in both orientations, and the subtree bound stays at or below the
// Zhang–Shasha distance from the query to every subtree of the data tree.
func checkProfiledBounds(t *testing.T, f, g *tree.Tree, in *cost.Interner) {
	t.Helper()
	fp, gp := internedProfile(f, in), internedProfile(g, in)
	for _, pair := range [][2]*Profile{{fp, gp}, {gp, fp}} {
		a, b := pair[0], pair[1]
		x, y := a.Tree(), b.Tree()
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"label histogram", LabelHistogramProfiled(a, b), LabelHistogram(x, y)},
			{"binary branch", binaryBranchProfiled(a, b), BinaryBranch(x, y)},
			{"string edit", stringEditProfiled(a, b), StringEdit(x, y)},
			{"lower", LowerProfiled(a, b), Lower(x, y)},
		} {
			if c.got != c.want {
				t.Fatalf("%s bound: profiled %v, string-keyed %v\nF=%s\nG=%s", c.name, c.got, c.want, x, y)
			}
		}
		lb := SubtreeLowerProfiled(a, b)
		row := zs.TreeDists(x, y, cost.Unit{})[x.Root()*y.Len():]
		for w := 0; w < y.Len(); w++ {
			if lb > row[w] {
				t.Fatalf("subtree bound %v exceeds the distance %v to subtree %s\nQ=%s\nD=%s",
					lb, row[w], y.SubtreeString(w), x, y)
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
		checkProfiledBounds(t, f, g, cost.NewInterner())
	}
}

// TestProfileRetainedSize pins what a stored tree's profile keeps
// resident: for a 40-node tree with 40 distinct labels (the worst case
// for both histograms) under 1.5 KB — 40 label pairs (8 bytes each), 40
// branch entries (16 bytes), the preorder ids (4 bytes a node) and the
// header; the postorder sequence aliases the ids the caller holds. The
// string-keyed maps and []string serializations this layout replaced
// held about 7.5 KB for the same tree.
func TestProfileRetainedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	tr := randomLabeled(rng, 40, func(i int) string { return fmt.Sprintf("label-%02d", i) })
	in := cost.NewInterner()
	ids := internedProfile(tr, in).post

	const copies = 1000
	keep := make([]*Profile, copies)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewProfile(tr, ids)
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
// its string-edit rows on the stack for trees this small.
func TestProfiledBoundsAllocFree(t *testing.T) {
	in := cost.NewInterner()
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
	_ = sink
}

// TestRestoreProfileChecksHistograms: persisted histograms restore in
// any order when they describe the tree, and any disagreement — a count
// off by one, a changed branch, another tree's histograms — is an error.
func TestRestoreProfileChecksHistograms(t *testing.T) {
	in := cost.NewInterner()
	tr := tree.MustParseBracket("{a{b}{c{b}{}}}")
	p := internedProfile(tr, in)
	other := internedProfile(tree.MustParseBracket("{a{b}{c{c}{}}}"), in)

	restore := func(labels []LabelCount, branches []BranchCount) (*Profile, error) {
		return RestoreProfile(tr, p.post, slices.Clone(labels), slices.Clone(branches))
	}
	labels, branches := slices.Clone(p.LabelCounts()), slices.Clone(p.BranchCounts())
	slices.Reverse(labels)
	slices.Reverse(branches)
	q, err := restore(labels, branches)
	if err != nil {
		t.Fatalf("restoring the tree's own histograms: %v", err)
	}
	if !slices.Equal(q.LabelCounts(), p.LabelCounts()) || !slices.Equal(q.BranchCounts(), p.BranchCounts()) {
		t.Fatalf("restored profile differs from a fresh one")
	}

	inflated := slices.Clone(p.LabelCounts())
	inflated[0].Count++
	moved := slices.Clone(p.BranchCounts())
	moved[0].NextSibling = p.LabelCounts()[0].ID
	for name, c := range map[string]struct {
		labels   []LabelCount
		branches []BranchCount
	}{
		"inflated label count":  {inflated, p.BranchCounts()},
		"changed branch":        {p.LabelCounts(), moved},
		"other tree's labels":   {other.LabelCounts(), p.BranchCounts()},
		"other tree's branches": {p.LabelCounts(), other.BranchCounts()},
		"missing entries":       {p.LabelCounts()[1:], p.BranchCounts()},
	} {
		if _, err := restore(c.labels, c.branches); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}
