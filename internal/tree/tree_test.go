package tree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIndexSmall(t *testing.T) {
	// Figure 1's tree: v1 "a" with children v2 "c", v5 "b" (child v3 "d"), v4 "e".
	root := NewNode("a", NewNode("c"), NewNode("b", NewNode("d")), NewNode("e"))
	tr := Index(root)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len=%d want 5", tr.Len())
	}
	// Postorder: c(0), d(1), b(2), e(3), a(4).
	wantLabels := []string{"c", "d", "b", "e", "a"}
	for i, w := range wantLabels {
		if tr.Label(i) != w {
			t.Fatalf("label[%d]=%q want %q", i, tr.Label(i), w)
		}
	}
	if tr.Root() != 4 || tr.Parent(4) != -1 {
		t.Fatalf("root bookkeeping wrong")
	}
	if tr.Parent(1) != 2 || tr.Parent(2) != 4 {
		t.Fatalf("parents wrong: %d %d", tr.Parent(1), tr.Parent(2))
	}
	if tr.Size(4) != 5 || tr.Size(2) != 2 {
		t.Fatalf("sizes wrong")
	}
	// Preorder: a c b d e.
	wantPre := map[string]int{"a": 0, "c": 1, "b": 2, "d": 3, "e": 4}
	for i := 0; i < 5; i++ {
		if tr.Pre(i) != wantPre[tr.Label(i)] {
			t.Fatalf("pre[%s]=%d want %d", tr.Label(i), tr.Pre(i), wantPre[tr.Label(i)])
		}
	}
	// Mirror postorder (postorder of mirrored tree: a e b d c): e d b c a -> ids.
	wantM := map[string]int{"e": 0, "d": 1, "b": 2, "c": 3, "a": 4}
	for i := 0; i < 5; i++ {
		if tr.MPost(i) != wantM[tr.Label(i)] {
			t.Fatalf("mpost[%s]=%d want %d", tr.Label(i), tr.MPost(i), wantM[tr.Label(i)])
		}
	}
	if tr.LeftmostLeaf(4) != 0 || tr.RightmostLeaf(4) != 3 {
		t.Fatalf("leaf descendants wrong")
	}
	if tr.HeavyChild(4) != 2 {
		t.Fatalf("heavy child of root = %d want 2 (b)", tr.HeavyChild(4))
	}
	if tr.Height() != 2 {
		t.Fatalf("height %d want 2", tr.Height())
	}
}

func TestBracketRoundTrip(t *testing.T) {
	cases := []string{
		"{a}",
		"{a{b}{c}}",
		"{a{b{d}{e{f}}}{c}}",
		"{}",              // empty label is legal
		"{a b{c d}}",      // labels with spaces
		`{br\{ce\}s{\\}}`, // escaped braces and backslash
	}
	for _, s := range cases {
		tr, err := ParseBracket(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("validate %q: %v", s, err)
		}
		again, err := ParseBracket(tr.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", s, tr.String(), err)
		}
		if !Equal(tr, again) {
			t.Fatalf("round trip changed tree: %q -> %q", s, again.String())
		}
	}
}

func TestBracketErrors(t *testing.T) {
	bad := []string{
		"",
		"a",
		"{a",
		"{a}}",
		"{a}{b}",
		"{a{b}",
		"{a\\",
		`{a\x}`,
		"{a} trailing",
		"junk {a}",
	}
	for _, s := range bad {
		if _, err := ParseBracket(s); err == nil {
			t.Fatalf("ParseBracket(%q) succeeded, want error", s)
		}
	}
}

func TestNewick(t *testing.T) {
	tr, err := ParseNewick("((A:0.1,B:0.2)AB:0.3,(C,D))root;")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7 {
		t.Fatalf("Len=%d want 7", tr.Len())
	}
	if tr.Label(tr.Root()) != "root" {
		t.Fatalf("root label %q", tr.Label(tr.Root()))
	}
	if tr.Label(2) != "AB" {
		t.Fatalf("internal label %q want AB", tr.Label(2))
	}
	// Quoted labels with escaped quotes.
	tr2, err := ParseNewick("('it''s a gene',B)")
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Label(0) != "it's a gene" {
		t.Fatalf("quoted label = %q", tr2.Label(0))
	}
	// Unquoted labels may contain interior spaces ("x y" is one label).
	sp, err := ParseNewick("(A,B)x y")
	if err != nil || sp.Label(sp.Root()) != "x y" {
		t.Fatalf("space label: %v %q", err, sp.Label(sp.Root()))
	}
	for _, bad := range []string{"((A,B)", "(A,B));", "(A,B):"} {
		if _, err := ParseNewick(bad); err == nil {
			t.Fatalf("ParseNewick(%q) succeeded, want error", bad)
		}
	}
}

// randomNode builds a random builder tree for property tests.
func randomNode(rng *rand.Rand, n int) *Node {
	labels := []string{"a", "b", "{", "}", `\`, "x y", ""}
	nd := NewNode(labels[rng.Intn(len(labels))])
	n--
	for n > 0 {
		c := 1 + rng.Intn(n)
		nd.Add(randomNode(rng, c))
		n -= c
	}
	return nd
}

func TestRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, szRaw uint8) bool {
		_ = seed
		sz := int(szRaw%40) + 1
		tr := Index(randomNode(rng, sz))
		if tr.Validate() != nil {
			return false
		}
		again, err := ParseBracket(tr.String())
		return err == nil && Equal(tr, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		tr := Index(randomNode(rng, 1+rng.Intn(30)))
		m := tr.Mirror()
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if !Equal(tr, m.Mirror()) {
			t.Fatalf("mirror not an involution for %s", tr)
		}
		// Mirror postorder of tr equals postorder of the mirror: node
		// labels listed by MPost on tr must equal labels by postorder on m.
		for c := 0; c < tr.Len(); c++ {
			if tr.Label(tr.ByMPost(c)) != m.Label(c) {
				t.Fatalf("mirror postorder mismatch at %d for %s", c, tr)
			}
		}
		// Node v of tr corresponds to the node of m whose postorder id is
		// tr.MPost(v); mirroring preserves subtree sizes under that map.
		for v := 0; v < tr.Len(); v++ {
			if tr.Size(v) != m.Size(tr.MPost(v)) {
				t.Fatalf("subtree size not preserved under mirror")
			}
		}
	}
}

func TestMirrorPostorderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		tr := Index(randomNode(rng, 1+rng.Intn(40)))
		n := tr.Len()
		for v := 0; v < n; v++ {
			// Subtrees are contiguous in mirror postorder and end at the root.
			lo := tr.MPost(v) - tr.Size(v) + 1
			if lo < 0 {
				t.Fatalf("mpost range broken")
			}
			// Root has the maximal id within its subtree.
			for _, c := range tr.Children(v) {
				if tr.MPost(c) >= tr.MPost(v) {
					t.Fatalf("child mpost above parent")
				}
				if tr.Pre(c) <= tr.Pre(v) {
					t.Fatalf("child preorder below parent")
				}
			}
		}
	}
}

func TestShapeStats(t *testing.T) {
	tr := MustParseBracket("{a{b{c}{d}}{e}}")
	s := tr.Shape()
	if s.Size != 5 || s.Height != 2 || s.Leaves != 3 || s.MaxFanout != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.AvgDepth != (0+1+2+2+1)/5.0 {
		t.Fatalf("avg depth %v", s.AvgDepth)
	}
}

func TestBuilderCopy(t *testing.T) {
	tr := MustParseBracket("{a{b{c}}{d}}")
	nd := tr.Builder(tr.Root())
	nd.Children[0].Label = "MUT"
	if strings.Contains(tr.String(), "MUT") {
		t.Fatal("Builder did not deep-copy")
	}
	if Index(tr.Builder(tr.Root())).String() != tr.String() {
		t.Fatal("Builder copy not equal")
	}
}

func TestEscapeLabel(t *testing.T) {
	for _, l := range []string{"plain", "{", "}", `\`, `a{b}c\d`, ""} {
		esc := EscapeLabel(l)
		tr, err := ParseBracket("{" + esc + "}")
		if err != nil {
			t.Fatalf("escape %q -> %q unparseable: %v", l, esc, err)
		}
		if tr.Label(0) != l {
			t.Fatalf("escape round trip %q -> %q", l, tr.Label(0))
		}
	}
}

func TestDeepTree(t *testing.T) {
	// A 50k-deep chain must index without stack issues.
	var sb strings.Builder
	const depth = 50000
	for i := 0; i < depth; i++ {
		sb.WriteString("{n")
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("}")
	}
	tr, err := ParseBracket(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != depth || tr.Height() != depth-1 {
		t.Fatalf("chain stats wrong: len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
