package strategy

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/treegen"
)

// pinInputs are the pairs of TestOptChoicesPinned: every ordered pair of
// the synthetic shapes at four sizes, random pairs, and TreeBank-like
// against SwissProt-like trees.
func pinInputs() [][2]*tree.Tree {
	var shapes []*tree.Tree
	for _, n := range []int{1, 2, 17, 60} {
		for _, s := range treegen.Shapes {
			shapes = append(shapes, s.Build(n))
		}
	}
	var ps [][2]*tree.Tree
	for _, f := range shapes {
		for _, g := range shapes {
			ps = append(ps, [2]*tree.Tree{f, g})
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		ps = append(ps, [2]*tree.Tree{
			treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(60), MaxDepth: 10, MaxFanout: 5}),
			treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(60), MaxDepth: 10, MaxFanout: 5}),
		})
	}
	for i := 0; i < 20; i++ {
		ps = append(ps, [2]*tree.Tree{treegen.TreeBankLike(rng, 20+rng.Intn(80)), treegen.SwissProtLike(rng, 20+rng.Intn(80))})
	}
	return ps
}

// TestOptChoicesPinned pins the paper's strategy bit for bit: a hash of
// every choice OptRestricted makes on pinInputs, and the sum of the
// optimal counts, for the full LRH set and both restrictions, as the
// count-only Algorithm 2 computed them before the DP was priced and its
// inner loop hoisted. A warm OptScratch under CountPrice must make the
// same choices.
func TestOptChoicesPinned(t *testing.T) {
	want := []struct {
		name    string
		allowed [numChoices]bool
		hash    uint64
		costs   int64
	}{
		{"LRH", AllLRH, 0x1803ac5d7676d0fa, 2325061},
		{"LR", LROnly, 0x7455b2161b27a269, 2812856},
		{"H", HOnly, 0x3aec78bdc951097e, 7107654},
	}
	inputs := pinInputs()
	for _, w := range want {
		h := fnv.New64a()
		var sum int64
		for _, p := range inputs {
			a, c := OptRestricted(p[0], p[1], w.allowed)
			for _, ch := range a.Choices {
				h.Write([]byte{byte(ch)})
			}
			sum += c
		}
		if h.Sum64() != w.hash || sum != w.costs {
			t.Errorf("%s: choice hash %#x, cost sum %d; want %#x, %d", w.name, h.Sum64(), sum, w.hash, w.costs)
		}
	}
	var s OptScratch
	for i, p := range inputs {
		want, wc := Opt(p[0], p[1])
		got, gc := s.Opt(p[0], p[1], NewDecomp(p[0]), NewDecomp(p[1]), CountPrice)
		if gc != wc || string(got.Choices) != string(want.Choices) {
			t.Fatalf("input %d: OptScratch under CountPrice differs from Opt (cost %d vs %d)", i, gc, wc)
		}
	}
}

// priceOf returns the price of the strategy whose analytic count is c.
func priceOf(p Price, c CountResult) int64 {
	heavy := c.ByChoice[HeavyF] + c.ByChoice[HeavyG]
	return p.Call*c.SPFCalls + p.I*heavy + p.LR*(c.Total-heavy)
}

// TestPricedOptIsOptimal cross-checks the priced DP against the priced
// baseline (the memoized cost formula) and against the analytic count of
// the array it returns, under the engine's time price and an odd one.
func TestPricedOptIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var s OptScratch
	for iter := 0; iter < 40; iter++ {
		f := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(50), MaxDepth: 9, MaxFanout: 5})
		g := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(50), MaxDepth: 9, MaxFanout: 5})
		for _, p := range []Price{TimePrice, {Call: 5, LR: 3, I: 1}} {
			arr, c := s.Opt(f, g, NewDecomp(f), NewDecomp(g), p)
			if _, base := baseline(f, g, AllLRH, p); base != c {
				t.Fatalf("iter %d price %+v: DP optimum %d, baseline %d\nF=%s\nG=%s", iter, p, c, base, f, g)
			}
			if got := priceOf(p, Count(f, g, arr)); got != c {
				t.Fatalf("iter %d price %+v: DP reports %d but its array prices at %d", iter, p, c, got)
			}
		}
	}
}

// TestPricedStrategyPinned pins the engine's priced strategy on the Fig 8
// shapes (LB, RB, FB, ZZ, MX and a random tree) at n = 200, on every
// pair: its subproblem count and single-path calls, next to the paper
// optimum's count. Each count must stay within the proven robustness
// factor (Call + max(LR, I)) / min(LR, I) of the paper's optimum.
func TestPricedStrategyPinned(t *testing.T) {
	const n = 200
	trees := map[string]*tree.Tree{"RND": treegen.Random(rand.New(rand.NewSource(1)), treegen.PaperRandom(n))}
	names := []string{"LB", "RB", "FB", "ZZ", "MX", "RND"}
	for _, s := range treegen.Shapes {
		trees[s.String()] = s.Build(n)
	}
	type counts struct{ paper, subs, calls int64 }
	want := map[string]counts{
		"LB-LB":   {89401, 89401, 100},
		"LB-RB":   {2029801, 2029801, 100},
		"LB-FB":   {225365, 225365, 100},
		"LB-ZZ":   {1049801, 1049801, 9901},
		"LB-MX":   {263573, 282185, 176},
		"LB-RND":  {196176, 200136, 100},
		"RB-RB":   {89401, 89401, 100},
		"RB-FB":   {219765, 219765, 73},
		"RB-ZZ":   {1069401, 1069401, 9901},
		"RB-MX":   {265173, 282795, 256},
		"RB-RND":  {194576, 198536, 100},
		"FB-FB":   {540225, 540225, 73},
		"FB-ZZ":   {2115161, 2309157, 1704},
		"FB-MX":   {486105, 498905, 428},
		"FB-RND":  {476257, 476833, 104},
		"ZZ-ZZ":   {2029801, 2029801, 9901},
		"ZZ-MX":   {1508169, 1595889, 2902},
		"ZZ-RND":  {1704176, 1949861, 2804},
		"MX-MX":   {504811, 523781, 858},
		"MX-RND":  {427388, 440255, 575},
		"RND-RND": {419690, 426347, 180},
	}
	p := TimePrice
	factor := (p.Call + max(p.LR, p.I)) / min(p.LR, p.I)
	var worst float64
	var s OptScratch
	for i, a := range names {
		for _, b := range names[i:] {
			f, g := trees[a], trees[b]
			_, paper := Opt(f, g)
			arr, _ := s.Opt(f, g, NewDecomp(f), NewDecomp(g), p)
			c := Count(f, g, arr)
			got := counts{paper, c.Total, c.SPFCalls}
			key := a + "-" + b
			if w, ok := want[key]; !ok || got != w {
				t.Errorf("%s: (paper, priced subproblems, priced calls) = %v, want %v", key, got, w)
			}
			if c.Total > factor*paper {
				t.Errorf("%s: priced count %d exceeds %d × the paper optimum %d", key, c.Total, factor, paper)
			}
			worst = max(worst, float64(c.Total)/float64(paper))
		}
	}
	t.Logf("largest priced/paper subproblem ratio: %.3f (bound %d)", worst, factor)
}

// TestOptScratchShrink: a scratch above the cap drops its per-cell
// buffers, one under it keeps them, and a shrunk scratch still computes
// the same strategy.
func TestOptScratchShrink(t *testing.T) {
	f, g := treegen.ZigZag(40), treegen.Mixed(40)
	df, dg := NewDecomp(f), NewDecomp(g)
	want, wc := Opt(f, g)
	var s OptScratch
	s.Opt(f, g, df, dg, CountPrice)
	s.Shrink(1 << 20)
	if s.lv == nil || s.arr.Choices == nil {
		t.Fatal("a scratch under the cap dropped its buffers")
	}
	s.Shrink(40*40 - 1)
	if s.lv != nil || s.rv != nil || s.hv != nil || s.arr.Choices != nil {
		t.Fatal("a scratch over the cap kept its buffers")
	}
	if got, c := s.Opt(f, g, df, dg, CountPrice); c != wc || string(got.Choices) != string(want.Choices) {
		t.Fatalf("after Shrink: cost %d, want %d (or the choices differ)", c, wc)
	}
}

// TestOptScratchAllocFree: a warm scratch computes a strategy without
// allocating, under either price.
func TestOptScratchAllocFree(t *testing.T) {
	f, g := treegen.ZigZag(60), treegen.FullBinary(50)
	df, dg := NewDecomp(f), NewDecomp(g)
	var s OptScratch
	for _, p := range []Price{CountPrice, TimePrice} {
		s.Opt(f, g, df, dg, p)
		if n := testing.AllocsPerRun(20, func() { s.Opt(f, g, df, dg, p) }); n != 0 {
			t.Errorf("price %+v: a warm OptScratch allocates %v times per call", p, n)
		}
	}
}
