package bounds

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/naive"
	"repro/internal/tree"
	"repro/internal/treegen"
	"repro/internal/zs"
)

func randTree(rng *rand.Rand, maxSize int) *tree.Tree {
	return treegen.Random(rng, treegen.RandomSpec{
		Size: 1 + rng.Intn(maxSize), MaxDepth: 7, MaxFanout: 4, Labels: 3,
	})
}

// TestBoundsSandwich is the defining property: every lower bound is at
// most the exact distance, which is at most the constrained upper bound.
func TestBoundsSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for iter := 0; iter < 200; iter++ {
		f, g := randTree(rng, 25), randTree(rng, 25)
		exact := naive.Dist(f, g, cost.Unit{})
		for name, lb := range map[string]float64{
			"size":      Size(f, g),
			"histogram": LabelHistogram(f, g),
			"string":    StringEdit(f, g),
			"branch":    BinaryBranch(f, g),
			"lower":     Lower(f, g),
		} {
			if lb > exact+1e-9 {
				t.Fatalf("%s lower bound %v exceeds exact %v\nF=%s\nG=%s", name, lb, exact, f, g)
			}
		}
		if ub := Constrained(f, g); ub < exact-1e-9 {
			t.Fatalf("constrained %v below exact %v\nF=%s\nG=%s", ub, exact, f, g)
		}
	}
}

// TestSubtreeLowerSandwich: the subtree bound is at most the unit
// distance from the query to every subtree of the data tree (the
// Zhang–Shasha subtree-distance matrix is the oracle), and at least the
// size bound |Q| − |d| it subsumes. Small alphabets make labels overlap,
// so the bound lands anywhere between 0 and |Q|.
func TestSubtreeLowerSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 300; iter++ {
		spec := func(maxSize int) treegen.RandomSpec {
			return treegen.RandomSpec{Size: 1 + rng.Intn(maxSize), MaxDepth: 6, MaxFanout: 4, Labels: 1 + rng.Intn(4)}
		}
		q, d := treegen.Random(rng, spec(12)), treegen.Random(rng, spec(30))
		in := tree.NewLabelTable()
		lb := SubtreeLowerProfiled(internedProfile(q, in), internedProfile(d, in))
		if size := float64(q.Len() - d.Len()); lb < size {
			t.Fatalf("subtree bound %v below the size bound %v\nQ=%s\nD=%s", lb, size, q, d)
		}
		dists := zs.TreeDists(q, d, cost.Unit{})
		row := dists[q.Root()*d.Len():]
		for w := 0; w < d.Len(); w++ {
			if lb > row[w]+1e-9 {
				t.Fatalf("subtree bound %v exceeds the distance %v to subtree %s\nQ=%s\nD=%s",
					lb, row[w], d.SubtreeString(w), q, d)
			}
		}
	}
}

func TestBoundsOnIdenticalTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		f := randTree(rng, 40)
		if Lower(f, f) != 0 {
			t.Fatalf("nonzero lower bound on identical trees: %v", Lower(f, f))
		}
		if Constrained(f, f) != 0 {
			t.Fatalf("nonzero constrained distance on identical trees")
		}
	}
}

func TestConstrainedIsMetricLike(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var trees []*tree.Tree
	for i := 0; i < 8; i++ {
		trees = append(trees, randTree(rng, 15))
	}
	for _, a := range trees {
		for _, b := range trees {
			dab := Constrained(a, b)
			if dba := Constrained(b, a); dab != dba {
				t.Fatalf("constrained not symmetric: %v vs %v", dab, dba)
			}
			if dab > float64(a.Len()+b.Len()) {
				t.Fatalf("constrained %v above trivial bound", dab)
			}
		}
	}
}

// TestConstrainedSeparation: the constrained distance can strictly
// exceed TED. Flattening {a{b{c}{d}}} to {a{b}{c}{d}} costs 1 edit (the
// unconstrained mapping keeps c and d), but a constrained mapping cannot
// split b's children between b's match and a's other children.
func TestConstrainedSeparation(t *testing.T) {
	f := tree.MustParseBracket("{a{b{c}{d}}{e}}")
	g := tree.MustParseBracket("{a{c}{d}{e}}")
	exact := naive.Dist(f, g, cost.Unit{})
	ub := Constrained(f, g)
	if exact != 1 {
		t.Fatalf("exact = %v want 1 (delete b)", exact)
	}
	if ub <= exact {
		t.Fatalf("expected strict separation, constrained %v vs exact %v", ub, exact)
	}
}

func TestKnownBoundValues(t *testing.T) {
	f := tree.MustParseBracket("{a{b}{c}}")
	g := tree.MustParseBracket("{a{b}{d}}")
	if Size(f, g) != 0 {
		t.Fatal("size bound")
	}
	if LabelHistogram(f, g) != 1 {
		t.Fatalf("histogram bound %v want 1", LabelHistogram(f, g))
	}
	if StringEdit(f, g) != 1 {
		t.Fatalf("string bound %v want 1", StringEdit(f, g))
	}
	// Disjoint labels: histogram bound = max size.
	h := tree.MustParseBracket("{x{y}{z}}")
	if LabelHistogram(f, h) != 3 {
		t.Fatalf("disjoint histogram bound %v want 3", LabelHistogram(f, h))
	}
}

func TestStringEditDistanceCorrect(t *testing.T) {
	// Validate the internal sequence DP against classic cases using
	// single-node chains (serialization == the label sequence).
	chain := func(labels ...string) *tree.Tree {
		nd := tree.NewNode(labels[len(labels)-1])
		for i := len(labels) - 2; i >= 0; i-- {
			nd = tree.NewNode(labels[i], nd)
		}
		return tree.Index(nd)
	}
	a := chain("k", "i", "t", "t", "e", "n")
	b := chain("s", "i", "t", "t", "i", "n", "g")
	if d := StringEdit(a, b); d != 3 {
		t.Fatalf("kitten/sitting = %v want 3", d)
	}
}

// TestQuickBinaryBranchSymmetry: binary-branch distance is symmetric and
// zero only for identical branch histograms.
func TestQuickBinaryBranchSymmetry(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f, g := randTree(rng, 20), randTree(rng, 20)
		return BinaryBranch(f, g) == BinaryBranch(g, f) && BinaryBranch(f, f) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
