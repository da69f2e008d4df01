package index

import (
	"math"
	"testing"

	"repro/internal/tree"
)

func TestMaxOpsBelow(t *testing.T) {
	cases := []struct {
		tau  float64
		want int
	}{
		{-1, -1}, {0, -1}, {0.5, 0}, {1, 0}, {1.5, 1}, {3, 2}, {3.0001, 3},
		{4, 3}, {math.Inf(1), math.MaxInt32}, {1e300, math.MaxInt32},
	}
	for _, c := range cases {
		if got := maxOpsBelow(c.tau); got != c.want {
			t.Errorf("maxOpsBelow(%v) = %d, want %d", c.tau, got, c.want)
		}
	}
}

func TestSmallIDsOrderedAndBounded(t *testing.T) {
	var iv inverted
	sizes := []int{5, 2, 9, 2, 7}
	for id, n := range sizes {
		iv.put(id, n, nil)
	}
	sc := getScratch()
	defer sc.release()
	iv.smallIDs(5, sc)
	want := []int32{1, 3, 0}
	if len(sc.fringe) != len(want) {
		t.Fatalf("smallIDs(5) = %v, want %v", sc.fringe, want)
	}
	for i := range want {
		if sc.fringe[i] != want[i] {
			t.Fatalf("smallIDs(5) = %v, want %v", sc.fringe, want)
		}
	}
	sc.fringe = sc.fringe[:0]
	iv.smallIDs(100, sc)
	if len(sc.fringe) != len(sizes) {
		t.Fatalf("smallIDs(100) covers %d trees, want %d", len(sc.fringe), len(sizes))
	}
	// Deleting drops a tree from the sweep after the lazy rebuild.
	iv.delete(1)
	sc.fringe = sc.fringe[:0]
	iv.smallIDs(5, sc)
	want = []int32{3, 0}
	if len(sc.fringe) != len(want) || sc.fringe[0] != want[0] || sc.fringe[1] != want[1] {
		t.Fatalf("smallIDs(5) after delete = %v, want %v", sc.fringe, want)
	}
}

// TestTombstoneAndCompaction drives the generation machinery directly:
// replaced and deleted trees stop being visible to probes, and a
// compaction physically drops their postings without changing the view.
func TestTombstoneAndCompaction(t *testing.T) {
	var iv inverted
	// prof lists the keys of a profile, each as often as it counts.
	prof := func(kcs ...keyCount) []int32 {
		var keys []int32
		for _, kc := range kcs {
			for range kc.count {
				keys = append(keys, kc.id)
			}
		}
		return keys
	}
	iv.put(0, 3, prof(keyCount{0, 2}, keyCount{1, 1}))
	iv.put(1, 2, prof(keyCount{0, 1}, keyCount{2, 1}))
	iv.put(2, 4, prof(keyCount{0, 4}))

	count := func(q int) map[int32]int32 {
		sc := getScratch()
		defer sc.release()
		out := map[int32]int32{}
		if _, ok := iv.accumulate(q, sc, func(tr int32, _, _ *treeMeta) { out[tr] = sc.common[tr] }); !ok {
			return nil
		}
		return out
	}

	if got := count(2); got[0] != 2 || got[1] != 1 {
		t.Fatalf("initial probe of 2: %v", got)
	}
	// Replace tree 0: smaller overlap under the new profile.
	iv.put(0, 3, prof(keyCount{0, 1}))
	if got := count(2); got[0] != 1 {
		t.Fatalf("probe after replace: %v", got)
	}
	if iv.dead == 0 {
		t.Fatal("replace left no tombstones")
	}
	iv.delete(1)
	if got := count(2); got[1] != 0 {
		t.Fatalf("probe sees deleted tree: %v", got)
	}
	before := count(2)
	iv.compact()
	if iv.dead != 0 {
		t.Fatalf("compaction left %d tombstones", iv.dead)
	}
	after := count(2)
	if len(before) != len(after) || before[0] != after[0] {
		t.Fatalf("compaction changed the probe view: %v -> %v", before, after)
	}
	if iv.live != 2 {
		t.Fatalf("live count %d, want 2", iv.live)
	}
}

// TestGramKeyCollision: two grams whose hashes collide still get keys of
// their own, each found again on a later lookup.
func TestGramKeyCollision(t *testing.T) {
	ix := NewPQGram(tree.NewLabelTable(), 2)
	a, b := []int32{1, 2, null}, []int32{3, null, 4}
	ka := ix.key(a)
	ix.byHash[gramHash(b)] = ka // b's hash now finds a's key, as a collision would
	kb := ix.key(b)
	if kb == ka {
		t.Fatalf("colliding grams share key %d", ka)
	}
	if ix.key(a) != ka || ix.key(b) != kb || ix.key([]int32{1, 2, null}) != ka {
		t.Fatalf("keys changed on a second lookup: %d %d, want %d %d", ix.key(a), ix.key(b), ka, kb)
	}
}
