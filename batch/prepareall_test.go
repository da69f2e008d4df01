package batch_test

import (
	"slices"
	"testing"

	"repro/batch"
)

// TestPrepareAllWorkers: PrepareAll on four workers returns what it
// returns on one, the same trees in the same order, and every pair reads
// identical lower bounds off the two runs' profiles. The four-worker run
// goes first, so its workers intern every label into the shared table at
// once.
func TestPrepareAllWorkers(t *testing.T) {
	trees := randomTrees(29, 60, 40)
	four := batch.New(batch.WithWorkers(4))
	one := batch.New(batch.WithWorkers(1), batch.WithLabelTable(four.LabelTable()))
	p4 := four.PrepareAll(trees)
	p1 := one.PrepareAll(trees)
	if len(p4) != len(trees) || len(p1) != len(trees) {
		t.Fatalf("PrepareAll returned %d and %d trees, want %d", len(p4), len(p1), len(trees))
	}
	for i, tr := range trees {
		if p4[i].Tree().String() != tr.String() || p1[i].Tree().String() != tr.String() {
			t.Fatalf("tree %d: four workers prepared %s, one %s, want %s", i, p4[i].Tree(), p1[i].Tree(), tr)
		}
		if !slices.Equal(p4[i].Tree().IDs(), p1[i].Tree().IDs()) {
			t.Fatalf("tree %d: label ids %v on four workers, %v on one", i, p4[i].Tree().IDs(), p1[i].Tree().IDs())
		}
	}
	for i := range trees {
		for j := range trees {
			l4, b4 := batch.ProfiledBounds(p4[i], p4[j])
			l1, b1 := batch.ProfiledBounds(p1[i], p1[j])
			if l4 != l1 || b4 != b1 {
				t.Fatalf("pair (%d,%d): bounds (%v, %v) on four workers, (%v, %v) on one", i, j, l4, b4, l1, b1)
			}
		}
	}
	if got := four.PrepareAll(nil); len(got) != 0 {
		t.Fatalf("PrepareAll(nil) returned %d trees", len(got))
	}
}
