package index_test

import (
	"math"
	"testing"

	ted "repro"
	"repro/index"
	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/tree"
	"repro/internal/zs"
)

// profileCommon counts the multiset intersection of two sorted pq-gram
// profiles — the quantity the inverted index accumulates during a probe.
func profileCommon(a, b []string) int {
	common, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			common++
			i++
			j++
		}
	}
	return common
}

// FuzzPQGramCountFilter fuzzes the p = 1 count-based candidate filter
// against an enumerate-everything oracle: for every indexed tree the
// oracle recomputes the gram overlap from scratch profiles and applies
// the documented lower bound max(||F|−|G||, ⌈(max(|F|,|G|)−common)/2⌉).
// The probe's candidate set and LB values must match the oracle exactly,
// and — the completeness theorem — the oracle bound must never exceed
// the true unit-cost edit distance, so no true match is ever filtered.
//
// Run continuously with: go test -fuzz=FuzzPQGramCountFilter ./index
func FuzzPQGramCountFilter(f *testing.F) {
	f.Add("{a{b}{c}}", "{a{b{d}}}", "{a}", "{a{b}{c}}", 2.5, uint8(0))
	f.Add("{x{x{x}}}", "{y}", "{x{y}{x}}", "{x{x}{x}}", 1.0, uint8(1))
	f.Add("{r{a}{b}{c}}", "{r{c}{b}{a}}", "{r}", "{q{a}{b}}", math.Inf(1), uint8(2))
	f.Add("{a}", "{b}", "{c}", "{d}", 0.0, uint8(0))

	f.Fuzz(func(t *testing.T, s0, s1, s2, qs string, tau float64, qsel uint8) {
		if math.IsNaN(tau) {
			t.Skip()
		}
		q := 1 + int(qsel)%3
		var trees []*ted.Tree
		for _, s := range []string{s0, s1, s2, qs} {
			tr, err := ted.Parse(s)
			if err != nil || tr.Len() > 40 {
				t.Skip()
			}
			trees = append(trees, tr)
		}
		ix := index.NewPQGram(tree.NewLabelTable(), q)
		for _, tr := range trees {
			ix.Add(tr)
		}
		query := len(trees) - 1
		got := ix.CandidatesBelow(query, tau, nil)

		qt := trees[query]
		qProf := bounds.PQGramProfile(qt, 1, q)
		byID := make(map[int]index.Candidate, len(got))
		for _, c := range got {
			byID[c.ID] = c
		}
		want := 0
		for id := 0; id < query; id++ {
			tt := trees[id]
			common := profileCommon(qProf, bounds.PQGramProfile(tt, 1, q))
			lb := qt.Len() - tt.Len()
			if lb < 0 {
				lb = -lb
			}
			mx := qt.Len()
			if tt.Len() > mx {
				mx = tt.Len()
			}
			if gap := mx - common; gap > 0 && (gap+1)/2 > lb {
				lb = (gap + 1) / 2
			}
			if d := zs.Dist(qt, tt, cost.Unit{}); float64(lb) > d {
				t.Fatalf("count bound %d above true distance %v for pair %d\nQ=%s\nT=%s", lb, d, id, qs, trees[id])
			}
			c, in := byID[id]
			if wantIn := float64(lb) < tau; in != wantIn {
				t.Fatalf("candidate %d: generated=%v oracle=%v (lb=%d tau=%v)\nQ=%s\nT=%s",
					id, in, wantIn, lb, tau, qs, trees[id])
			}
			if in {
				want++
				if c.LB != float64(lb) {
					t.Fatalf("candidate %d: LB=%v, oracle %d", id, c.LB, lb)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("%d candidates generated, oracle wants %d", len(got), want)
		}
	})
}
