package bounds

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/treegen"
)

// chain returns an n-node path with labels drawn from a 3-letter
// alphabet.
func chain(rng *rand.Rand, n int) *tree.Tree {
	nd := tree.NewNode(string(rune('a' + rng.Intn(3))))
	for i := 1; i < n; i++ {
		nd = tree.NewNode(string(rune('a'+rng.Intn(3))), nd)
	}
	return tree.Index(nd)
}

// TestConstrainedBelow pins the banded DP's contract against the full
// one: on the threshold grid around the constrained distance d, the
// answer is exact and reported below exactly when d < tau, and otherwise
// stays an upper bound no smaller than tau. Random, flat/wide
// (SwissProt-like) and chain shapes share one scratch across pairs of
// different sizes, so stale cells from a larger pair would show.
func TestConstrainedBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shapes := []struct {
		name string
		gen  func() *tree.Tree
	}{
		{"random", func() *tree.Tree { return randTree(rng, 40) }},
		{"flat", func() *tree.Tree { return treegen.SwissProtLike(rng, 2+rng.Intn(50)) }},
		{"chain", func() *tree.Tree { return chain(rng, 1+rng.Intn(30)) }},
	}
	var s ConstrainedScratch
	for iter := 0; iter < 300; iter++ {
		sf, sg := shapes[iter%3], shapes[(iter/3)%3]
		f, g := sf.gen(), sg.gen()
		d := Constrained(f, g)
		for _, tau := range []float64{0, 1, d - 1, d, d + 0.5, d + 1, math.Inf(1)} {
			got, ok := ConstrainedBelow(f, g, tau, &s)
			switch {
			case ok != (d < tau):
				t.Fatalf("%s/%s tau=%v: below=%v for constrained distance %v\nF=%s\nG=%s", sf.name, sg.name, tau, ok, d, f, g)
			case ok && got != d:
				t.Fatalf("%s/%s tau=%v: %v, want exact %v\nF=%s\nG=%s", sf.name, sg.name, tau, got, d, f, g)
			case !ok && (got < tau || got < d):
				t.Fatalf("%s/%s tau=%v: %v is not an upper bound ≥ tau on %v\nF=%s\nG=%s", sf.name, sg.name, tau, got, d, f, g)
			}
		}
	}
}

// TestConstrainedScratchShrink: a scratch above the cap drops its DP
// buffers and still computes correctly afterwards; one below keeps them.
func TestConstrainedScratchShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	f, g := randTree(rng, 40), randTree(rng, 40)
	want := Constrained(f, g)
	var s ConstrainedScratch
	ConstrainedBelow(f, g, math.Inf(1), &s)
	s.Shrink(1 << 20)
	if s.d == nil {
		t.Fatal("a scratch under the cap dropped its buffers")
	}
	s.Shrink(1)
	if s.d != nil || s.df != nil || s.seq != nil {
		t.Fatal("a scratch over the cap kept its buffers")
	}
	if got, ok := ConstrainedBelow(f, g, math.Inf(1), &s); !ok || got != want {
		t.Fatalf("after Shrink: %v %v, want %v", got, ok, want)
	}
}
