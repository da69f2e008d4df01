package gted

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/treegen"
)

// TestArenaShrink: an arena over the cap drops every buffer, one under
// it keeps them, and a shrunk arena still computes the same distance and
// subtree matrix.
func TestArenaShrink(t *testing.T) {
	f, g := treegen.ZigZag(40), treegen.Mixed(40)
	s, _ := strategy.Opt(f, g)
	cm := cost.Compile(cost.Unit{}, f, g)
	want := NewCompiled(f, g, cm, s)
	wd := want.Run()

	ar := NewArena()
	NewInArena(f, g, cm, s, ar, new(atomic.Bool)).Run()
	ar.Shrink(1 << 20)
	if ar.Cells() != 40*40 {
		t.Fatalf("an arena under the cap kept %d matrix cells, want %d", ar.Cells(), 40*40)
	}
	ar.Shrink(40*40 - 1)
	if !reflect.DeepEqual(*ar, Arena{}) {
		t.Fatal("an arena over the cap kept buffers")
	}
	r := NewInArena(f, g, cm, s, ar, new(atomic.Bool))
	if d := r.Run(); d != wd || !slices.Equal(r.Matrix(), want.Matrix()) {
		t.Fatalf("after Shrink: distance %g, want %g (or the subtree matrix differs)", d, wd)
	}
}
