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
