package ted_test

import (
	"math/rand"
	"sort"
	"testing"

	ted "repro"
	"repro/gen"
)

// TestTopKSubtreesExact cross-checks TopKSubtrees against brute force:
// the distance from the query to every data subtree extracted and
// recomputed independently.
func TestTopKSubtreesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 15; iter++ {
		query := gen.Random(rng.Int63(), gen.RandomSpec{Size: 1 + rng.Intn(10), MaxDepth: 5, MaxFanout: 3, Labels: 3})
		data := gen.Random(rng.Int63(), gen.RandomSpec{Size: 5 + rng.Intn(40), MaxDepth: 7, MaxFanout: 4, Labels: 3})

		// Brute force: distance to each subtree, via the public API on
		// extracted copies.
		type cand struct {
			root int
			dist float64
		}
		var all []cand
		for w := 0; w < data.Len(); w++ {
			sub := ted.Build(data.Builder(w))
			all = append(all, cand{w, ted.Distance(query, sub)})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].dist != all[j].dist {
				return all[i].dist < all[j].dist
			}
			return all[i].root < all[j].root
		})

		for _, k := range []int{1, 3, data.Len(), data.Len() + 5} {
			got := ted.TopKSubtrees(query, data, k)
			wantLen := k
			if wantLen > data.Len() {
				wantLen = data.Len()
			}
			if len(got) != wantLen {
				t.Fatalf("k=%d: got %d matches want %d", k, len(got), wantLen)
			}
			for i, m := range got {
				if m.Root != all[i].root || m.Dist != all[i].dist {
					t.Fatalf("k=%d match %d: got (%d,%v) want (%d,%v)",
						k, i, m.Root, m.Dist, all[i].root, all[i].dist)
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	q := ted.MustParse("{a}")
	d := ted.MustParse("{a{a}{b}}")
	if got := ted.TopKSubtrees(q, d, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	got := ted.TopKSubtrees(q, d, 2)
	if len(got) != 2 || got[0].Dist != 0 || d.Label(got[0].Root) != "a" {
		t.Fatalf("top-2 = %+v", got)
	}
	// All algorithms agree on the match set.
	for _, alg := range ted.Algorithms {
		g2 := ted.TopKSubtrees(q, d, 2, ted.WithAlgorithm(alg))
		for i := range got {
			if g2[i] != got[i] {
				t.Fatalf("%v: %+v want %+v", alg, g2[i], got[i])
			}
		}
	}
}

// perTreeMerge is the definition TopKSubtreesAcross must meet, taken
// independently of the scan it checks: every data tree's subtree
// distances from SubtreeDistances, merged, fully sorted under the
// (Dist, Tree, Root) order and cut to k.
func perTreeMerge(query *ted.Tree, data []*ted.Tree, k int) []ted.CrossSubtreeMatch {
	var want []ted.CrossSubtreeMatch
	for di, d := range data {
		m := ted.SubtreeDistances(query, d)
		for w := 0; w < d.Len(); w++ {
			want = append(want, ted.CrossSubtreeMatch{Tree: di, Root: w, Dist: m.At(query.Root(), w)})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		if a.Tree != b.Tree {
			return a.Tree < b.Tree
		}
		return a.Root < b.Root
	})
	if len(want) > k {
		want = want[:k]
	}
	return want
}

// TestTopKSubtreesAcross cross-checks the multi-tree, cutoff-shrinking
// top-k against every tree's subtree distances merged by brute force.
func TestTopKSubtreesAcross(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	query := gen.Random(rng.Int63(), gen.RandomSpec{Size: 8, MaxDepth: 5, MaxFanout: 3, Labels: 3})
	var data []*ted.Tree
	for i := 0; i < 6; i++ {
		data = append(data, gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 10 + rng.Intn(25), MaxDepth: 7, MaxFanout: 4, Labels: 3,
		}))
	}
	for _, k := range []int{1, 4, 9} {
		want := perTreeMerge(query, data, k)
		var st ted.Stats
		got := ted.TopKSubtreesAcross(query, data, k, ted.WithStats(&st))
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d matches, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d match %d: got %+v want %+v", k, i, got[i], want[i])
			}
		}
		if st.Subproblems <= 0 {
			t.Fatalf("k=%d: no subproblems reported", k)
		}
	}
	if got := ted.TopKSubtreesAcross(query, nil, 3); got != nil {
		t.Fatal("empty data should return nil")
	}
	if got := ted.TopKSubtreesAcross(query, data, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestSubtreeDistances(t *testing.T) {
	f := gen.ZigZag(31)
	g := gen.Mixed(29)
	m := ted.SubtreeDistances(f, g)
	nf, ng := m.Dims()
	if nf != f.Len() || ng != g.Len() {
		t.Fatalf("dims %dx%d", nf, ng)
	}
	if m.At(f.Root(), g.Root()) != ted.Distance(f, g) {
		t.Fatal("root cell != Distance")
	}
	// Every cell equals the independently computed subtree distance.
	for v := 0; v < nf; v += 7 {
		for w := 0; w < ng; w += 5 {
			sf := ted.Build(f.Builder(v))
			sg := ted.Build(g.Builder(w))
			if want := ted.Distance(sf, sg); m.At(v, w) != want {
				t.Fatalf("At(%d,%d) = %v want %v", v, w, m.At(v, w), want)
			}
		}
	}
}
