package gted

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/treegen"
)

// TestRunBoundedContract checks the bounded-mode contract on random trees
// under every strategy: RunBounded(tau) returns (d, true) exactly when the
// exact distance d is at most tau — with d bit-identical to the exact
// run's under the unit model — and (+Inf, false) otherwise.
func TestRunBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	models := []cost.Model{
		cost.Unit{},
		cost.Weighted{DeleteW: 1.3, InsertW: 0.7, RenameW: 2.1},
	}
	for iter := 0; iter < 60; iter++ {
		f := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(30), MaxDepth: 8, MaxFanout: 4, Labels: 3})
		g := treegen.Random(rng, treegen.RandomSpec{Size: 1 + rng.Intn(30), MaxDepth: 8, MaxFanout: 4, Labels: 3})
		for _, m := range models {
			_, unit := m.(cost.Unit)
			for _, s := range strategiesFor(f, g) {
				exact := New(f, g, m, s)
				d := exact.Run()
				for _, tau := range []float64{0, d / 2, d - 0.5, d, d + 0.5, 2*d + 1, math.Inf(1)} {
					b := New(f, g, m, s)
					bd, ok := b.RunBounded(tau)
					if ok != (d <= tau) {
						t.Fatalf("iter %d %s tau=%v: ok=%v, exact d=%v\nF=%s\nG=%s",
							iter, s.Name(), tau, ok, d, f, g)
					}
					if ok {
						if unit && bd != d {
							t.Fatalf("iter %d %s tau=%v: bounded %v != exact %v", iter, s.Name(), tau, bd, d)
						}
						if !unit && !approx(bd, d) {
							t.Fatalf("iter %d %s tau=%v: bounded %v !~ exact %v", iter, s.Name(), tau, bd, d)
						}
					} else if !math.IsInf(bd, 1) {
						t.Fatalf("iter %d %s tau=%v: exceeded run returned %v, want +Inf", iter, s.Name(), tau, bd)
					}
					if st := b.Stats(); st.Subproblems > exact.Stats().Subproblems {
						t.Fatalf("iter %d %s tau=%v: bounded evaluated %d subproblems, exact %d",
							iter, s.Name(), tau, st.Subproblems, exact.Stats().Subproblems)
					}
				}
			}
		}
	}
}

// TestBoundedMatrixSaturation checks the matrix contract of a bounded run
// without the root check (the top-k mode): every subtree-pair entry is
// either exactly the unbounded run's value, or an overestimate that is
// itself above the cutoff — never an underestimate, and never a stale
// cell.
func TestBoundedMatrixSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 40; iter++ {
		f := treegen.Random(rng, treegen.RandomSpec{Size: 2 + rng.Intn(35), MaxDepth: 8, MaxFanout: 4, Labels: 3})
		g := treegen.Random(rng, treegen.RandomSpec{Size: 2 + rng.Intn(35), MaxDepth: 8, MaxFanout: 4, Labels: 3})
		for _, s := range strategiesFor(f, g) {
			exact := New(f, g, cost.Unit{}, s)
			d := exact.Run()
			want := exact.Matrix()
			for _, tau := range []float64{0, 1, d / 2, d} {
				b := New(f, g, cost.Unit{}, s)
				b.SetCutoff(tau)
				b.Run()
				got := b.Matrix()
				for v := 0; v < f.Len(); v++ {
					for w := 0; w < g.Len(); w++ {
						gv, wv := got[v*g.Len()+w], want[v*g.Len()+w]
						if gv < wv {
							t.Fatalf("iter %d %s tau=%v: D[%d][%d]=%v below exact %v\nF=%s\nG=%s",
								iter, s.Name(), tau, v, w, gv, wv, f, g)
						}
						if gv <= tau && gv != wv {
							t.Fatalf("iter %d %s tau=%v: D[%d][%d]=%v within cutoff but exact is %v",
								iter, s.Name(), tau, v, w, gv, wv)
						}
					}
				}
			}
		}
	}
}

// TestBoundedPrunes pins the point of bounded mode: on a large shape pair
// with a cutoff well under the distance, the run must skip a nonzero
// number of subproblems and evaluate strictly fewer than the exact run.
func TestBoundedPrunes(t *testing.T) {
	f := treegen.LeftBranch(80)
	g := treegen.FullBinary(63)
	s, _ := strategy.Opt(f, g)
	exact := New(f, g, cost.Unit{}, s)
	d := exact.Run()
	if d < 8 {
		t.Fatalf("shape pair distance %v too small for the pruning scenario", d)
	}
	b := New(f, g, cost.Unit{}, s)
	if _, ok := b.RunBounded(d / 8); ok {
		t.Fatalf("cutoff %v below distance %v reported ok", d/8, d)
	}
	st := b.Stats()
	if st.PrunedSubproblems == 0 {
		t.Fatal("bounded run pruned nothing")
	}
	if st.Subproblems >= exact.Stats().Subproblems {
		t.Fatalf("bounded run evaluated %d subproblems, exact %d", st.Subproblems, exact.Stats().Subproblems)
	}
}

// TestRootRefusalStructuralTerms pins each structural term of the root
// check under a non-unit model: one pair whose size offset alone
// exceeds tau and one whose height offset alone does (same size, a chain
// against a full binary tree). Every label is shared, so the rename
// floor is 0 and cannot be what refuses them. Each run must be refused
// at its root before any DP.
func TestRootRefusalStructuralTerms(t *testing.T) {
	m := cost.Weighted{DeleteW: 1, InsertW: 1, RenameW: 1.5}
	const tau = 3
	for _, c := range []struct{ name, f, g string }{
		{"size", "{a{a}{a}{a}{a}{a}{a}}", "{a{a}}"},
		{"height", "{a{a{a{a{a{a{a}}}}}}}", "{a{a{a}{a}}{a{a}{a}}}"},
	} {
		f, g := mustParse(t, c.f), mustParse(t, c.g)
		if ds, dh := abs(f.Len()-g.Len()), abs(f.Height()-g.Height()); (ds > tau) == (dh > tau) {
			t.Fatalf("%s: size offset %d and height offset %d must straddle tau %v", c.name, ds, dh, tau)
		}
		if rf := cost.Compile(m, f, g).MinRename(); rf != 0 {
			t.Fatalf("%s: rename floor %v, want 0 on shared labels", c.name, rf)
		}
		for _, s := range strategiesFor(f, g) {
			if d := New(f, g, m, s).Run(); d <= tau {
				t.Fatalf("%s %s: exact distance %v within tau %v", c.name, s.Name(), d, tau)
			}
			r := New(f, g, m, s)
			if bd, ok := r.RunBounded(tau); ok || !math.IsInf(bd, 1) {
				t.Fatalf("%s %s: RunBounded(%v) = (%v, %v), want (+Inf, false)", c.name, s.Name(), tau, bd, ok)
			}
			st := r.Stats()
			if st.PrunedKeyroots != 1 || st.Subproblems != 0 || st.PrunedSubproblems != int64(f.Len()*g.Len()) {
				t.Fatalf("%s %s: %+v, want a root refusal (1 pruned keyroot, 0 subproblems, %d pruned)",
					c.name, s.Name(), st, f.Len()*g.Len())
			}
		}
	}
}

func abs(x int) int { return max(x, -x) }
