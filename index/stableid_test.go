package index_test

import (
	"math"
	"math/rand"
	"testing"

	ted "repro"
	"repro/gen"
	"repro/index"
)

// mutableIndex is the incremental-maintenance surface shared by both
// index kinds, as the tests exercise it.
type mutableIndex interface {
	Put(id int, t *ted.Tree)
	Delete(id int) bool
	CandidatesBelow(q int, tau float64, dst []index.Candidate) []index.Candidate
	Compact()
	Len() int
}

// probeAll collects every candidate pair of a probe-below sweep.
func probeAll(probe func(q int, buf []index.Candidate) []index.Candidate, ids []int, tau float64) map[[2]int]float64 {
	out := map[[2]int]float64{}
	var buf []index.Candidate
	for _, q := range ids {
		buf = probe(q, buf)
		for _, c := range buf {
			out[[2]int{c.ID, q}] = c.LB
		}
	}
	return out
}

// TestDeleteReplaceEquivalence is the incremental-maintenance oracle: an
// index that went through interleaved Put/Delete/Replace must generate
// exactly the candidates of a fresh index built from the surviving trees
// under the same ids — for both index kinds, before and after compaction.
func TestDeleteReplaceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func() []*ted.Tree {
		var ts []*ted.Tree
		for i := 0; i < 20; i++ {
			ts = append(ts, gen.Random(rng.Int63(), gen.RandomSpec{
				Size: 1 + rng.Intn(25), MaxDepth: 6, MaxFanout: 4, Labels: 4,
			}))
		}
		return ts
	}
	initial, replacements := mk(), mk()

	builders := map[string]func() mutableIndex{
		"histogram": func() mutableIndex { return index.NewHistogram() },
		"pqgram":    func() mutableIndex { return index.NewPQGram(2) },
	}
	for name, build := range builders {
		incr := build()
		live := map[int]*ted.Tree{}
		for id, tr := range initial {
			incr.Put(id, tr)
			live[id] = tr
		}
		// Interleave deletes and replaces, including delete-then-revive.
		for _, id := range []int{3, 7, 11} {
			incr.Delete(id)
			delete(live, id)
		}
		for _, id := range []int{0, 7, 14, 19} {
			incr.Put(id, replacements[id])
			live[id] = replacements[id]
		}
		if incr.Delete(3) {
			t.Fatalf("%s: double delete reported success", name)
		}

		fresh := build()
		var ids []int
		for id := 0; id < len(initial); id++ {
			if tr, ok := live[id]; ok {
				fresh.Put(id, tr)
				ids = append(ids, id)
			}
		}
		if incr.Len() != fresh.Len() {
			t.Fatalf("%s: live count %d, fresh %d", name, incr.Len(), fresh.Len())
		}
		for _, tau := range []float64{1, 4.5, 12, math.Inf(1)} {
			want := probeAll(func(q int, buf []index.Candidate) []index.Candidate {
				return fresh.CandidatesBelow(q, tau, buf)
			}, ids, tau)
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					incr.Compact()
				}
				got := probeAll(func(q int, buf []index.Candidate) []index.Candidate {
					return incr.CandidatesBelow(q, tau, buf)
				}, ids, tau)
				if len(got) != len(want) {
					t.Fatalf("%s tau=%v pass=%d: %d candidate pairs, want %d", name, tau, pass, len(got), len(want))
				}
				for k, lb := range want {
					if g, ok := got[k]; !ok || g != lb {
						t.Fatalf("%s tau=%v pass=%d: pair %v LB=%v, want %v (present=%v)", name, tau, pass, k, g, lb, ok)
					}
				}
			}
		}
	}
}

// TestSnapshotRestore pins the persistence contract: a restored index
// generates bit-identical candidates (IDs and LBs) and keeps
// allocating fresh ids above everything the snapshot's writer used.
func TestSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var trees []*ted.Tree
	for i := 0; i < 16; i++ {
		trees = append(trees, gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 1 + rng.Intn(20), MaxDepth: 6, MaxFanout: 4, Labels: 5,
		}))
	}
	h := index.NewHistogram()
	p := index.NewPQGram(3)
	for _, tr := range trees {
		h.Add(tr)
		p.Add(tr)
	}
	h.Delete(4)
	p.Delete(4)

	h2, err := index.RestoreHistogram(h.Snapshot())
	if err != nil {
		t.Fatalf("RestoreHistogram: %v", err)
	}
	p2, err := index.RestorePQGram(3, p.Snapshot())
	if err != nil {
		t.Fatalf("RestorePQGram: %v", err)
	}
	if h2.Len() != h.Len() || p2.Len() != p.Len() {
		t.Fatalf("restored live counts (%d, %d), want (%d, %d)", h2.Len(), p2.Len(), h.Len(), p.Len())
	}
	for _, tau := range []float64{2, 7.5, math.Inf(1)} {
		for q := range trees {
			a := h.CandidatesBelow(q, tau, nil)
			b := h2.CandidatesBelow(q, tau, nil)
			if len(a) != len(b) {
				t.Fatalf("histogram q=%d tau=%v: %d vs %d candidates", q, tau, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("histogram q=%d tau=%v: candidate %d %+v vs %+v", q, tau, i, a[i], b[i])
				}
			}
			c := p.CandidatesBelow(q, tau, nil)
			d := p2.CandidatesBelow(q, tau, nil)
			if len(c) != len(d) {
				t.Fatalf("pqgram q=%d tau=%v: %d vs %d candidates", q, tau, len(c), len(d))
			}
			for i := range c {
				if c[i] != d[i] {
					t.Fatalf("pqgram q=%d tau=%v: candidate %d %+v vs %+v", q, tau, i, c[i], d[i])
				}
			}
		}
	}
	// A deleted id stays burned after restore: the next Add must not
	// alias it.
	if id := h2.Add(trees[0]); id != len(trees) {
		t.Fatalf("restored histogram Add assigned id %d, want %d", id, len(trees))
	}
	// Corrupt snapshots must error, not panic.
	s := h.Snapshot()
	s.Entries[0].Prof[0].Key = int32(len(s.Keys)) + 7
	if _, err := index.RestoreHistogram(s); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	s = h.Snapshot()
	s.Entries[0].ID = s.Entries[1].ID
	if _, err := index.RestoreHistogram(s); err == nil {
		t.Fatal("duplicate entry id accepted")
	}
}
