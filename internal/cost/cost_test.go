package cost

import (
	"testing"

	"repro/internal/tree"
)

func TestUnit(t *testing.T) {
	var u Unit
	if u.Delete("a") != 1 || u.Insert("b") != 1 {
		t.Fatal("unit del/ins")
	}
	if u.Rename("a", "a") != 0 || u.Rename("a", "b") != 1 {
		t.Fatal("unit rename")
	}
}

func TestCompile(t *testing.T) {
	f := tree.MustParseBracket("{a{b}{a}}")
	g := tree.MustParseBracket("{b{c}}")
	c := Compile(Unit{}, f, g)
	// Interning: both "a" nodes of f share an id; "b" is shared across trees.
	if c.FID[0] != c.GID[1] { // f's leaf b (post 0), g's root b (post 1)
		t.Fatalf("label ids not shared: %v %v", c.FID, c.GID)
	}
	if c.FID[1] != c.FID[2] {
		t.Fatalf("equal labels in one tree differ: %v", c.FID)
	}
	if c.Ren(1, 1) != 1 || c.Ren(0, 1) != 0 {
		t.Fatal("compiled rename wrong")
	}
	if c.Del[0] != 1 || c.Ins[0] != 1 {
		t.Fatal("compiled del/ins wrong")
	}
}

func TestCompileWeighted(t *testing.T) {
	f := tree.MustParseBracket("{a{b}}")
	g := tree.MustParseBracket("{c}")
	w := Weighted{DeleteW: 2, InsertW: 3, RenameW: 5}
	c := Compile(w, f, g)
	if c.Del[0] != 2 || c.Ins[0] != 3 {
		t.Fatal("weighted del/ins")
	}
	if c.Ren(0, 0) != 5 {
		t.Fatal("weighted rename")
	}
	// Memoized second call returns the same value.
	if c.Ren(0, 0) != 5 {
		t.Fatal("memoized rename")
	}
}

// TestTranspose checks the direction-reversal semantics: deleting in the
// transposed direction must cost what inserting cost originally, and
// renames must swap arguments.
func TestTranspose(t *testing.T) {
	f := tree.MustParseBracket("{a}")
	g := tree.MustParseBracket("{b{c}}")
	asym := Func{
		DeleteF: func(l string) float64 { return 10 },
		InsertF: func(l string) float64 { return 20 },
		RenameF: func(a, b string) float64 {
			if a == "a" && b == "b" {
				return 1
			}
			return 7
		},
	}
	c := Compile(asym, f, g)
	ct := c.Transpose()
	// G-side deletions in the transposed direction = original insert cost.
	for i := range ct.Del {
		if ct.Del[i] != 20 {
			t.Fatalf("transposed Del[%d]=%v want 20", i, ct.Del[i])
		}
	}
	for i := range ct.Ins {
		if ct.Ins[i] != 10 {
			t.Fatalf("transposed Ins[%d]=%v want 10", i, ct.Ins[i])
		}
	}
	// Rename in the transposed direction (G-node, F-node) = cr(F, G):
	// ct.Ren(g-root "b", f-root "a") must be cr("a","b") = 1.
	if got := ct.Ren(1, 0); got != 1 {
		t.Fatalf("transposed rename = %v want 1", got)
	}
	if got := c.Ren(0, 1); got != 1 {
		t.Fatalf("original rename = %v want 1", got)
	}
}

func TestFuncModel(t *testing.T) {
	m := Func{
		DeleteF: func(l string) float64 { return float64(len(l)) },
		InsertF: func(l string) float64 { return 1 },
		RenameF: func(a, b string) float64 { return 0.5 },
	}
	if m.Delete("abc") != 3 || m.Insert("x") != 1 || m.Rename("a", "b") != 0.5 {
		t.Fatal("func model dispatch")
	}
}

// TestRenameMemoReuse pins the arena-ization of the rename maps: two
// pairs assembled through the same RenameMemo must resolve a rename the
// first pair already paid for without consulting the model again, in both
// orientations.
func TestRenameMemoReuse(t *testing.T) {
	f := tree.MustParseBracket("{a{b}}")
	g := tree.MustParseBracket("{b{c}}")
	calls := 0
	m := Func{
		DeleteF: func(string) float64 { return 1 },
		InsertF: func(string) float64 { return 1 },
		RenameF: func(a, b string) float64 { calls++; return 2 },
	}
	in := tree.NewLabelTable()
	pf, pg := CompileTree(m, f, in), CompileTree(m, g, in)

	var rm RenameMemo
	c1 := PairPreparedMemo(m, pf, pg, &rm)
	c1.Ren(1, 1)             // a -> b, forward
	c1.Transpose().Ren(1, 1) // b -> a, reverse
	if calls != 2 {
		t.Fatalf("cold pair consulted the model %d times, want 2", calls)
	}
	c2 := PairPreparedMemo(m, pf, pg, &rm)
	c2.Ren(1, 1)
	c2.Transpose().Ren(1, 1)
	if calls != 2 {
		t.Fatalf("warm pair consulted the model (%d calls total, want 2)", calls)
	}
	rm.Reset()
	c3 := PairPreparedMemo(m, pf, pg, &rm)
	c3.Ren(1, 1)
	if calls != 3 {
		t.Fatalf("reset memo did not re-consult the model (%d calls, want 3)", calls)
	}
}

// TestPairPreparedNilMemo checks that the nil-memo path (the sequential
// API) still memoizes within one pair.
func TestPairPreparedNilMemo(t *testing.T) {
	f := tree.MustParseBracket("{a}")
	g := tree.MustParseBracket("{b}")
	calls := 0
	m := Func{
		DeleteF: func(string) float64 { return 1 },
		InsertF: func(string) float64 { return 1 },
		RenameF: func(a, b string) float64 { calls++; return 2 },
	}
	in := tree.NewLabelTable()
	c := PairPreparedMemo(m, CompileTree(m, f, in), CompileTree(m, g, in), nil)
	c.Ren(0, 0)
	c.Ren(0, 0)
	if calls != 1 {
		t.Fatalf("within-pair memo consulted the model %d times, want 1", calls)
	}
}
