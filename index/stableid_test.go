package index_test

import (
	"math"
	"math/rand"
	"testing"

	ted "repro"
	"repro/gen"
	"repro/index"
	"repro/internal/tree"
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
		"histogram": func() mutableIndex { return index.NewHistogram(tree.NewLabelTable()) },
		"pqgram":    func() mutableIndex { return index.NewPQGram(tree.NewLabelTable(), 2) },
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
