package strategy

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/treegen"
)

// TestPaperExample4 reproduces the worked example of Section 6.2: F has
// three nodes (root with two leaf children), G has two (root with one
// child). The example's cost arrays pin down both the update rules and
// the heavy-path tie-break (the heavy child of F's root must be the
// RIGHT leaf for Hv[3,1] = 1).
func TestPaperExample4(t *testing.T) {
	f := tree.MustParseBracket("{3{1}{2}}")
	g := tree.MustParseBracket("{2{1}}")

	df, dg := NewDecomp(f), NewDecomp(g)
	// Factors quoted in the example: |A(Fv)| = |F(Fv,ΓL)| = |F(Fv,ΓR)| = 4,
	// |A(Gw)| = |F(Gw,ΓL)| = |F(Gw,ΓR)| = 2.
	if df.A[f.Root()] != 4 || df.FL[f.Root()] != 4 || df.FR[f.Root()] != 4 {
		t.Fatalf("F factors: A=%d FL=%d FR=%d, want 4,4,4", df.A[f.Root()], df.FL[f.Root()], df.FR[f.Root()])
	}
	if dg.A[g.Root()] != 2 || dg.FL[g.Root()] != 2 || dg.FR[g.Root()] != 2 {
		t.Fatalf("G factors: A=%d FL=%d FR=%d, want 2,2,2", dg.A[g.Root()], dg.FL[g.Root()], dg.FR[g.Root()])
	}

	str, cmin := Opt(f, g)
	if cmin != 8 {
		t.Fatalf("optimal cost = %d, want 8 (the example's cmin)", cmin)
	}
	// All six costs tie at 8 for the root pair; the paper picks γH(F3),
	// the first candidate in line order.
	if got := str.Choose(f.Root(), g.Root()); got != HeavyF {
		t.Fatalf("root pair choice = %v, want heavy-F", got)
	}
	// Leaf rows of the strategy array: γH(F1) / γH(F2) everywhere.
	for v := 0; v < 2; v++ {
		for w := 0; w < g.Len(); w++ {
			if got := str.Choose(v, w); got != HeavyF {
				t.Fatalf("STR[%d,%d] = %v, want heavy-F", v, w, got)
			}
		}
	}
}

// TestHeavyTieBreakRightmost pins the tie-break convention Example 4
// implies: with equal child sizes the rightmost child is heavy.
func TestHeavyTieBreakRightmost(t *testing.T) {
	f := tree.MustParseBracket("{r{a}{b}}")
	if h := f.HeavyChild(f.Root()); h != 1 {
		t.Fatalf("heavy child = node %d, want 1 (the right leaf)", h)
	}
	g := tree.MustParseBracket("{r{a{x}{y}}{b}{c{z}{w}}}")
	// Children sizes 3,1,3: heavy must be the rightmost size-3 child (c).
	h := g.HeavyChild(g.Root())
	if g.Label(h) != "c" {
		t.Fatalf("heavy child label = %q, want c", g.Label(h))
	}
}

// fullDecompositionBruteForce enumerates A(F) by definition: repeatedly
// remove leftmost/rightmost root nodes, collecting distinct non-empty
// node sets as bitmasks. Only valid for trees up to 64 nodes. It is
// deliberately independent of the (preorder, postorder)-interval
// characterization used by the production code.
func fullDecompositionBruteForce(t *tree.Tree) map[uint64]bool {
	n := t.Len()
	if n > 64 {
		panic("brute force limited to 64 nodes")
	}
	full := uint64(0)
	for i := 0; i < n; i++ {
		full |= 1 << uint(i)
	}
	seen := make(map[uint64]bool)
	var visit func(set uint64)
	leftmostRoot := func(set uint64) int {
		// The root with the smallest preorder id.
		best := -1
		for i := 0; i < n; i++ {
			if set&(1<<uint(i)) == 0 {
				continue
			}
			p := t.Parent(i)
			if p != -1 && set&(1<<uint(p)) != 0 {
				continue // not a root
			}
			if best == -1 || t.Pre(i) < t.Pre(best) {
				best = i
			}
		}
		return best
	}
	rightmostRoot := func(set uint64) int {
		best := -1
		for i := 0; i < n; i++ {
			if set&(1<<uint(i)) == 0 {
				continue
			}
			p := t.Parent(i)
			if p != -1 && set&(1<<uint(p)) != 0 {
				continue
			}
			if best == -1 || i > best {
				best = i
			}
		}
		return best
	}
	visit = func(set uint64) {
		if set == 0 || seen[set] {
			return
		}
		seen[set] = true
		visit(set &^ (1 << uint(leftmostRoot(set))))
		visit(set &^ (1 << uint(rightmostRoot(set))))
	}
	visit(full)
	return seen
}

// TestLemma1FullDecomposition checks the closed form |A(F)| against the
// brute-force enumeration for many random trees and all shape trees.
func TestLemma1FullDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var trees []*tree.Tree
	for i := 0; i < 40; i++ {
		trees = append(trees, treegen.Random(rng, treegen.RandomSpec{
			Size: 1 + rng.Intn(20), MaxDepth: 6, MaxFanout: 4,
		}))
	}
	for _, s := range treegen.Shapes {
		for _, n := range []int{1, 2, 7, 16} {
			trees = append(trees, s.Build(n))
		}
	}
	for _, tr := range trees {
		d := NewDecomp(tr)
		want := int64(len(fullDecompositionBruteForce(tr)))
		if d.A[tr.Root()] != want {
			t.Fatalf("|A| formula=%d brute=%d for %s", d.A[tr.Root()], want, tr)
		}
	}
}

// relevantForestsBruteForce follows Definition 3 literally and returns
// the sequence of non-empty relevant subforests for a root-leaf path.
func relevantForestsBruteForce(t *tree.Tree, pt PathType) []uint64 {
	n := t.Len()
	onPath := make(map[int]bool)
	for _, u := range PathNodes(t, t.Root(), pt) {
		onPath[u] = true
	}
	var forests []uint64
	set := uint64(0)
	for i := 0; i < n; i++ {
		set |= 1 << uint(i)
	}
	for set != 0 {
		forests = append(forests, set)
		// Identify leftmost and rightmost roots.
		lm, rm := -1, -1
		for i := 0; i < n; i++ {
			if set&(1<<uint(i)) == 0 {
				continue
			}
			p := t.Parent(i)
			if p != -1 && set&(1<<uint(p)) != 0 {
				continue
			}
			if lm == -1 || t.Pre(i) < t.Pre(lm) {
				lm = i
			}
			if rm == -1 || i > rm {
				rm = i
			}
		}
		if onPath[lm] && lm != rm {
			set &^= 1 << uint(rm)
		} else if lm == rm && onPath[lm] {
			set &^= 1 << uint(lm) // single root on path: remove it
		} else {
			set &^= 1 << uint(lm)
		}
	}
	return forests
}

// TestLemma2ChainLength: |F(F, γ)| = |F| for every path type.
func TestLemma2ChainLength(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		tr := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(24), MaxDepth: 7, MaxFanout: 4})
		for _, pt := range []PathType{Left, Right, Heavy} {
			forests := relevantForestsBruteForce(tr, pt)
			if len(forests) != tr.Len() {
				t.Fatalf("|F(F,γ%v)| = %d, want |F| = %d for %s", pt, len(forests), tr.Len(), tr)
			}
			// Each forest must also appear in the full decomposition.
			if tr.Len() <= 20 {
				all := fullDecompositionBruteForce(tr)
				for _, f := range forests {
					if !all[f] {
						t.Fatalf("relevant subforest %b not in A(F) for %s", f, tr)
					}
				}
			}
		}
	}
}

// TestLemma3RecursiveDecomposition checks FL/FR against the definition:
// the sum of the sizes of all relevant subtrees of the recursive
// left/right-path decomposition.
func TestLemma3RecursiveDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sumRelevant func(tr *tree.Tree, v int, pt PathType) int64
	sumRelevant = func(tr *tree.Tree, v int, pt PathType) int64 {
		total := int64(tr.Size(v))
		ForEachHanging(tr, v, pt, func(r int) {
			total += sumRelevant(tr, r, pt)
		})
		return total
	}
	for i := 0; i < 30; i++ {
		tr := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(40), MaxDepth: 8, MaxFanout: 5})
		d := NewDecomp(tr)
		for v := 0; v < tr.Len(); v++ {
			if want := sumRelevant(tr, v, Left); d.FL[v] != want {
				t.Fatalf("FL[%d]=%d want %d for %s", v, d.FL[v], want, tr)
			}
			if want := sumRelevant(tr, v, Right); d.FR[v] != want {
				t.Fatalf("FR[%d]=%d want %d for %s", v, d.FR[v], want, tr)
			}
		}
	}
}

// TestPathNodes checks the three path families on a hand-built tree.
func TestPathNodes(t *testing.T) {
	//        r
	//      / | \
	//     a  b  c
	//    /|  |  |\
	//   d e  f  g h(i)
	tr := tree.MustParseBracket("{r{a{d}{e}}{b{f}}{c{g}{h{i}}}}")
	label := func(nodes []int) string {
		s := ""
		for _, v := range nodes {
			s += tr.Label(v)
		}
		return s
	}
	if got := label(PathNodes(tr, tr.Root(), Left)); got != "rad" {
		t.Fatalf("left path = %q, want rad", got)
	}
	if got := label(PathNodes(tr, tr.Root(), Right)); got != "rchi" {
		t.Fatalf("right path = %q, want rchi", got)
	}
	// Heavy: children of r have sizes 3,2,4 -> c; c's children sizes 1,2 -> h.
	if got := label(PathNodes(tr, tr.Root(), Heavy)); got != "rchi" {
		t.Fatalf("heavy path = %q, want rchi", got)
	}
	// Path r→a→d hangs subtrees b, c (at r) and e (at a).
	got := HangingSubtrees(tr, tr.Root(), Left)
	if label(got) != "bce" {
		t.Fatalf("hanging subtrees of left path = %q, want bce", label(got))
	}
	// Path r→c→h hangs a, b (at r), g (at c) and nothing at h, i.
	got = HangingSubtrees(tr, tr.Root(), Right)
	if label(got) != "abg" {
		t.Fatalf("hanging subtrees of right path = %q, want abg", label(got))
	}
}

// TestChoiceEncoding exercises the compact Choice byte encoding.
func TestChoiceEncoding(t *testing.T) {
	cases := []struct {
		c   Choice
		inG bool
		pt  PathType
		str string
	}{
		{HeavyF, false, Heavy, "heavy-F"},
		{HeavyG, true, Heavy, "heavy-G"},
		{LeftF, false, Left, "left-F"},
		{LeftG, true, Left, "left-G"},
		{RightF, false, Right, "right-F"},
		{RightG, true, Right, "right-G"},
	}
	for _, c := range cases {
		if c.c.InG() != c.inG || c.c.Type() != c.pt || c.c.String() != c.str {
			t.Fatalf("choice %d: got (%v,%v,%q) want (%v,%v,%q)",
				c.c, c.c.InG(), c.c.Type(), c.c.String(), c.inG, c.pt, c.str)
		}
		if MakeChoice(c.pt, c.inG) != c.c {
			t.Fatalf("MakeChoice(%v,%v) != %v", c.pt, c.inG, c.c)
		}
	}
}

// TestCountOnPaperShapes sanity-checks the closed-form counts on shapes
// with known behaviour: for the left-branch tree Zhang-L must beat
// Zhang-R asymptotically, and vice versa; the optimum never exceeds the
// best fixed strategy.
func TestCountOnPaperShapes(t *testing.T) {
	n := 201
	lb := treegen.LeftBranch(n)
	rb := treegen.RightBranch(n)
	zlLB := Count(lb, lb, ZhangL()).Total
	zrLB := Count(lb, lb, ZhangR()).Total
	if zlLB*10 > zrLB {
		t.Fatalf("LB: Zhang-L (%d) should be far below Zhang-R (%d)", zlLB, zrLB)
	}
	zlRB := Count(rb, rb, ZhangL()).Total
	zrRB := Count(rb, rb, ZhangR()).Total
	if zrRB*10 > zlRB {
		t.Fatalf("RB: Zhang-R (%d) should be far below Zhang-L (%d)", zrRB, zlRB)
	}
	_, opt := Opt(lb, lb)
	if opt > zlLB {
		t.Fatalf("LB: optimum %d exceeds Zhang-L %d", opt, zlLB)
	}
	// Symmetry of the cost model: cost(F,G) == cost(G,F).
	fz := treegen.ZigZag(77)
	_, a := Opt(lb, fz)
	_, b := Opt(fz, lb)
	if a != b {
		t.Fatalf("optimal cost not symmetric: %d vs %d", a, b)
	}
}
