package gted

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/tree"
)

// mustParse builds a tree from bracket notation for the rename-floor
// tests.
func mustParse(t *testing.T, s string) *tree.Tree {
	tr, err := tree.ParseBracket(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return tr
}

// TestRenameFloorPrunesDisjointLabels pins the per-label-pair rename
// floor: two trees of identical shape (so the size and height bounds are
// both zero) but disjoint label sets, under a model whose cheapest
// rename exceeds delete+insert. The optimal script deletes one tree and
// inserts the other, so δ = 2n; a cutoff below that must be refused, and
// the refusal happens at the keyroot level — before any DP — which only
// the rename floor can prove (size offset 0, height offset 0).
func TestRenameFloorPrunesDisjointLabels(t *testing.T) {
	f := mustParse(t, "{a{b{c}}{d}{e}}")
	g := mustParse(t, "{v{w{x}}{y}{z}}")
	m := cost.Weighted{DeleteW: 1, InsertW: 1, RenameW: 5}
	n := f.Len()
	tau := float64(n) // well below δ = 2n

	for _, s := range strategiesFor(f, g) {
		exact := New(f, g, m, s)
		d := exact.Run()
		if want := float64(2 * n); d != want {
			t.Fatalf("%s: exact distance %v, want %v (delete-all + insert-all)", s.Name(), d, want)
		}

		b := New(f, g, m, s)
		if bd, ok := b.RunBounded(tau); ok || !math.IsInf(bd, 1) {
			t.Fatalf("%s: RunBounded(%v) = (%v, %v), want (+Inf, false)", s.Name(), tau, bd, ok)
		}
		st := b.Stats()
		if st.PrunedKeyroots == 0 {
			t.Fatalf("%s: bounded run pruned no keyroots; the rename floor should refuse the root pair outright", s.Name())
		}
		if st.Subproblems != 0 {
			t.Fatalf("%s: refused root pair still evaluated %d subproblems (exact run: %d)",
				s.Name(), st.Subproblems, exact.Stats().Subproblems)
		}
	}
}

// TestRenameFloorSharedLabelInert checks the floor degenerates to the
// old bound when the regions share a label: the cheapest rename is then
// a free self-rename, so rf = 0 and every bounded run must answer
// exactly as the exact run does.
func TestRenameFloorSharedLabelInert(t *testing.T) {
	f := mustParse(t, "{a{b}{c}}")
	g := mustParse(t, "{a{c}{b}}")
	m := cost.Weighted{DeleteW: 1.3, InsertW: 0.7, RenameW: 2.1}
	for _, s := range strategiesFor(f, g) {
		exact := New(f, g, m, s)
		d := exact.Run()
		for _, tau := range []float64{0, d / 2, d, d + 1} {
			bd, ok := New(f, g, m, s).RunBounded(tau)
			if ok != (d <= tau) || (ok && bd != d) {
				t.Fatalf("%s tau=%v: bounded (%v, %v), exact %v", s.Name(), tau, bd, ok, d)
			}
		}
	}
}

// TestRenFloors pins the cost-side computation on a hand-checked pair.
func TestRenFloors(t *testing.T) {
	f := mustParse(t, "{a{b}}")
	g := mustParse(t, "{x{y}}")
	// Rename prices keyed by the label pair; everything else expensive.
	price := map[[2]string]float64{
		{"a", "x"}: 4, {"a", "y"}: 7,
		{"b", "x"}: 3, {"b", "y"}: 9,
	}
	m := cost.Func{
		DeleteF: func(string) float64 { return 1 },
		InsertF: func(string) float64 { return 1 },
		RenameF: func(a, b string) float64 {
			if a == b {
				return 0
			}
			if p, ok := price[[2]string{a, b}]; ok {
				return p
			}
			if p, ok := price[[2]string{b, a}]; ok {
				return p
			}
			return 100
		},
	}
	cm := cost.Compile(m, f, g)
	// Postorder of {a{b}}: b=0, a=1. min over {x, y}: b → 3, a → 4;
	// subtree floors: leaf b keeps 3, root a folds min(4, 3) = 3.
	renF := cm.RenFloors(f)
	if renF[0] != 3 || renF[1] != 3 {
		t.Fatalf("renF = %v, want [3 3]", renF)
	}
	// Transposed side: renames into G nodes. Postorder of {x{y}}: y=0,
	// x=1. min over {a, b}: y → 7, x → 3; root folds to 3.
	renG := cm.Transpose().RenFloors(g)
	if renG[0] != 7 || renG[1] != 3 {
		t.Fatalf("renG = %v, want [7 3]", renG)
	}
	if cost.Compile(cost.Unit{}, f, g).RenFloors(f) != nil {
		t.Fatal("unit model must have nil rename floors")
	}
}
