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

// corpus draws a mixed-shape collection with a small label alphabet so
// thresholds produce both matches and non-matches.
func corpus(seed int64, n, size int) []*ted.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := []*ted.Tree{
		gen.LeftBranch(size),
		gen.RightBranch(size),
		gen.FullBinary(size),
		gen.ZigZag(size),
	}
	for len(out) < n {
		out = append(out, gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 1 + rng.Intn(size), MaxDepth: 8, MaxFanout: 5, Labels: 3,
		}))
	}
	return out
}

// labelLB is the brute-force label-histogram lower bound the Histogram
// index must reproduce pair for pair.
func labelLB(f, g *ted.Tree) float64 {
	hf := map[string]int{}
	for i := 0; i < f.Len(); i++ {
		hf[f.Label(i)]++
	}
	common := 0
	hg := map[string]int{}
	for i := 0; i < g.Len(); i++ {
		hg[g.Label(i)]++
	}
	for l, cf := range hf {
		if cg := hg[l]; cg < cf {
			common += cg
		} else {
			common += cf
		}
	}
	m := f.Len()
	if g.Len() > m {
		m = g.Len()
	}
	return float64(m - common)
}

// TestHistogramMatchesBruteForce checks that the posting-list merge
// reproduces the brute-force label-histogram bound exactly: for every
// (query, threshold), the candidate set is {t < q : lb(t, q) < tau} with
// the right LB values.
func TestHistogramMatchesBruteForce(t *testing.T) {
	trees := corpus(1, 14, 30)
	ix := index.NewHistogram(tree.NewLabelTable())
	for _, tr := range trees {
		ix.Add(tr)
	}
	var buf []index.Candidate
	for _, tau := range []float64{0, 1, 2.5, 5, 12, 40, math.Inf(1)} {
		for q := range trees {
			buf = ix.CandidatesBelow(q, tau, buf)
			want := map[int]float64{}
			for j := 0; j < q; j++ {
				if lb := labelLB(trees[q], trees[j]); lb < tau {
					want[j] = lb
				}
			}
			if len(buf) != len(want) {
				t.Fatalf("tau=%v q=%d: %d candidates, want %d (%v)", tau, q, len(buf), len(want), buf)
			}
			last := -1
			for _, c := range buf {
				if c.ID <= last {
					t.Fatalf("tau=%v q=%d: candidates not id-ascending: %v", tau, q, buf)
				}
				last = c.ID
				if lb, ok := want[c.ID]; !ok || lb != c.LB {
					t.Fatalf("tau=%v q=%d: candidate %d LB=%v, want %v (present=%v)", tau, q, c.ID, c.LB, lb, ok)
				}
			}
		}
	}
}

// TestPQGramComplete checks the p=1 completeness guarantee against the
// exact distance: every true match must be generated, at every threshold.
func TestPQGramComplete(t *testing.T) {
	trees := corpus(2, 14, 24)
	ix := index.NewPQGram(tree.NewLabelTable(), 2)
	for _, tr := range trees {
		ix.Add(tr)
	}
	var buf []index.Candidate
	for _, tau := range []float64{1, 2, 4.5, 9, 25, math.Inf(1)} {
		for q := range trees {
			buf = ix.CandidatesBelow(q, tau, buf)
			got := map[int]bool{}
			for _, c := range buf {
				got[c.ID] = true
				if c.LB >= tau {
					t.Fatalf("tau=%v q=%d: candidate %d carries LB %v ≥ tau", tau, q, c.ID, c.LB)
				}
				if d := ted.Distance(trees[q], trees[c.ID]); c.LB > d {
					t.Fatalf("tau=%v q=%d: candidate %d LB %v exceeds true distance %v", tau, q, c.ID, c.LB, d)
				}
			}
			for j := 0; j < q; j++ {
				if d := ted.Distance(trees[q], trees[j]); d < tau && !got[j] {
					t.Fatalf("tau=%v: true match (%d,%d) at distance %v was not generated", tau, j, q, d)
				}
			}
		}
	}
}

// TestPQGramCompleteAdversarial drives the completeness theorem through
// its worst case: high-fanout stars where a single root rename perturbs
// every root-anchored gram, which defeats p=2 grams entirely and leaves
// p=1 only the leaf grams.
func TestPQGramCompleteAdversarial(t *testing.T) {
	star := func(root string, kids int) *ted.Tree {
		n := ted.NewNode(root)
		for i := 0; i < kids; i++ {
			n.Add(ted.NewNode("a"))
		}
		return ted.Build(n)
	}
	trees := []*ted.Tree{
		star("r", 40),
		star("s", 40), // distance 1: rename the root
		star("r", 39), // distance 1: delete a leaf
		ted.MustParse("{x}"),
		ted.MustParse("{y}"), // (3,4) at distance 1 share no gram: fringe case
	}
	ix := index.NewPQGram(tree.NewLabelTable(), 2)
	for _, tr := range trees {
		ix.Add(tr)
	}
	var buf []index.Candidate
	for _, tau := range []float64{1.5, 2, 3} {
		for q := range trees {
			buf = ix.CandidatesBelow(q, tau, buf)
			got := map[int]bool{}
			for _, c := range buf {
				got[c.ID] = true
			}
			for j := 0; j < q; j++ {
				if d := ted.Distance(trees[q], trees[j]); d < tau && !got[j] {
					t.Fatalf("tau=%v: true match (%d,%d) at distance %v was not generated", tau, j, q, d)
				}
			}
		}
	}
}

// TestCandidatesBelowEdgeCases covers q=0 (nothing below), tau=0 (nothing
// matches), single-node trees and an exact duplicate.
func TestCandidatesBelowEdgeCases(t *testing.T) {
	trees := []*ted.Tree{ted.MustParse("{a}"), ted.MustParse("{a}"), ted.MustParse("{b}"),
		ted.MustParse("{a{b{c}}{d}}"), ted.MustParse("{a{b{c}}{d}}")}
	h := index.NewHistogram(tree.NewLabelTable())
	p := index.NewPQGram(tree.NewLabelTable(), 2)
	for _, tr := range trees {
		h.Add(tr)
		p.Add(tr)
	}
	if got := h.CandidatesBelow(0, 10, nil); len(got) != 0 {
		t.Fatalf("q=0 generated %v", got)
	}
	if got := p.CandidatesBelow(2, 0, nil); len(got) != 0 {
		t.Fatalf("tau=0 generated %v", got)
	}
	if got := h.CandidatesBelow(1, 0.5, nil); len(got) != 1 || got[0].ID != 0 || got[0].LB != 0 {
		t.Fatalf("identical single-node trees: %v", got)
	}
	if got := p.CandidatesBelow(2, 2, nil); len(got) != 2 {
		t.Fatalf("single-node fringe at tau=2: %v, want both earlier trees", got)
	}
	for _, got := range [][]index.Candidate{h.CandidatesBelow(4, 0.5, nil), p.CandidatesBelow(4, 0.5, nil)} {
		if len(got) != 1 || got[0].ID != 3 || got[0].LB != 0 {
			t.Fatalf("exact duplicate: %v, want only tree 3 at LB 0", got)
		}
	}
}
