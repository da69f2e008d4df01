package tree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestLabelTableConcurrent interns fresh labels from some goroutines
// while others read the labels of trees already on the table and
// relabel trees onto it. Label reads take no lock, so this is the test
// the race detector must pass; it also checks that every read sees the
// label its id was given and that every id names one label.
func TestLabelTableConcurrent(t *testing.T) {
	tab := NewLabelTable()
	rng := rand.New(rand.NewSource(5))
	var srcs, stored []*Tree
	for i := 0; i < 8; i++ {
		src := Index(randomNode(rng, 30))
		srcs = append(srcs, src)
		stored = append(stored, src.Relabel(tab))
	}
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) { // interning fresh labels
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l := fmt.Sprintf("fresh-%d-%d", w, i)
				id := tab.Intern(l)[0]
				if got := tab.Label(id); got != l {
					errs <- fmt.Errorf("interned %q as %d, which reads %q", l, id, got)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // readers of stored trees, relabelers of others
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (r + i) % len(srcs)
				for v := 0; v < stored[k].Len(); v++ {
					if stored[k].Label(v) != srcs[k].Label(v) {
						errs <- fmt.Errorf("tree %d node %d reads %q, want %q", k, v, stored[k].Label(v), srcs[k].Label(v))
						return
					}
				}
				again := Index(srcs[k].Builder(srcs[k].Root())).Relabel(tab)
				if !Equal(again, srcs[k]) || fmt.Sprint(again.IDs()) != fmt.Sprint(stored[k].IDs()) {
					errs <- fmt.Errorf("tree %d relabeled to ids %v, first relabeled to %v", k, again.IDs(), stored[k].IDs())
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for id, l := range tab.Snapshot() {
		if prev, ok := seen[l]; ok {
			t.Fatalf("label %q has ids %d and %d", l, prev, id)
		}
		seen[l] = id
	}
	if stored[0].Relabel(tab) != stored[0] {
		t.Fatal("Relabel copied a tree already on the table")
	}
	if _, err := FromIDs(tab, []int32{int32(tab.Len())}, []int{0}); err == nil {
		t.Fatal("FromIDs accepted a label id the table does not hold")
	}
}

// TestLabelTableID: ID finds the id Intern gave a label, assigns none to
// a label the table lacks, and on a parsed tree's table (one id per node)
// returns a repeated label's first id, as interning into it would.
func TestLabelTableID(t *testing.T) {
	tab := NewLabelTable()
	ids := tab.Intern("a", "", "b")
	for i, l := range []string{"a", "", "b"} {
		if id, ok := tab.ID(l); !ok || id != ids[i] {
			t.Errorf("ID(%q) = %d, %v; Intern gave %d", l, id, ok, ids[i])
		}
	}
	if id, ok := tab.ID("c"); ok || tab.Len() != 3 {
		t.Errorf("ID of a missing label = %d, %v, table of %d labels; want not found, 3 labels", id, ok, tab.Len())
	}
	parsed := MustParseBracket("{x{}{y}{}}").LabelTable() // postorder: "", y, "", x
	if id, ok := parsed.ID(""); !ok || id != 0 {
		t.Errorf("ID(\"\") on a parsed tree's table = %d, %v; want its first id, 0", id, ok)
	}
}
