package batch_test

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/gen"
	"repro/index"
	"repro/internal/tree"
)

// joinCorpus mixes the paper's synthetic shapes with random trees over a
// small alphabet, so every threshold regime (no matches, few, all) is
// reachable.
func joinCorpus(seed int64, n, size int) []*ted.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := []*ted.Tree{
		gen.LeftBranch(size),
		gen.RightBranch(size),
		gen.FullBinary(size),
		gen.ZigZag(size),
		gen.Mixed(size),
	}
	for len(out) < n {
		out = append(out, gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 1 + rng.Intn(size), MaxDepth: 8, MaxFanout: 5, Labels: 3,
		}))
	}
	return out
}

// joinSorted runs JoinStream to completion and sorts its matches by
// (I, J): the buffered join the tests compare against.
func joinSorted(e *batch.Engine, ps []*batch.PreparedTree, tau float64, filtered bool) ([]batch.Match, batch.JoinStats) {
	var ms []batch.Match
	st, err := e.JoinStream(context.Background(), ps, tau, filtered, func(m batch.Match) { ms = append(ms, m) })
	if err != nil {
		panic(err) // no context to cancel
	}
	slices.SortFunc(ms, func(a, b batch.Match) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	return ms, st
}

// indexedCandidates returns the candidate pairs mode yields at tau over
// the collection: every pair, without a carried bound, for
// IndexEnumerate; otherwise the pairs a throwaway index of that mode,
// keyed by collection position, generates when each position probes it
// — the candidates a corpus without a maintained index hands
// JoinCandidatesStream.
func indexedCandidates(ps []*batch.PreparedTree, mode batch.IndexMode, tau float64) []batch.CandidatePair {
	var ix interface {
		Add(t *tree.Tree) int
		CandidatesBelow(q int, tau float64, dst []index.Candidate) []index.Candidate
	}
	switch mode {
	case batch.IndexHistogram:
		ix = index.NewHistogram(tree.NewLabelTable())
	case batch.IndexPQGram:
		ix = index.NewPQGram(tree.NewLabelTable(), 2)
	default:
		var all []batch.CandidatePair
		for i := range ps {
			for j := i + 1; j < len(ps); j++ {
				all = append(all, batch.CandidatePair{I: i, J: j})
			}
		}
		return all
	}
	for _, p := range ps {
		ix.Add(p.Tree())
	}
	var cands []batch.CandidatePair
	var buf []index.Candidate
	for j := range ps {
		buf = ix.CandidatesBelow(j, tau, buf)
		for _, cd := range buf {
			cands = append(cands, batch.CandidatePair{I: cd.ID, J: j, LB: cd.LB})
		}
	}
	return cands
}

// TestJoinIndexedEquivalence is the engine's half of the indexed-join
// property test: for random corpora of the gen package's shapes, the
// candidates each mode yields, index lower bounds carried, run through
// JoinCandidatesStream must return exactly the match set of the
// enumerate+filter join — same pairs, same reported distances — at
// every threshold, including the degenerate 0 and +Inf, visiting no
// more pairs than enumeration and accounting every visited pair to one
// filter outcome. Mode resolution and the maintained indexes are pinned
// by corpus's TestJoinIndexedEquivalence.
func TestJoinIndexedEquivalence(t *testing.T) {
	modes := []batch.IndexMode{batch.IndexEnumerate, batch.IndexHistogram, batch.IndexPQGram}
	for seed := int64(1); seed <= 3; seed++ {
		trees := joinCorpus(seed, 12+2*int(seed), 25)
		e := batch.New(batch.WithWorkers(4))
		ps := e.PrepareAll(trees)
		for _, tau := range []float64{0, 1, 3.5, 8, 20, 60, math.Inf(1)} {
			want, wst := joinSorted(e, ps, tau, true)
			for _, mode := range modes {
				var got []batch.Match
				gst, err := e.JoinCandidatesStream(context.Background(), ps, indexedCandidates(ps, mode, tau), tau, func(m batch.Match) {
					got = append(got, m)
				})
				if err != nil {
					t.Fatalf("seed=%d tau=%v mode=%v: %v", seed, tau, mode, err)
				}
				slices.SortFunc(got, func(a, b batch.Match) int {
					return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
				})
				if len(got) != len(want) {
					t.Fatalf("seed=%d tau=%v mode=%v: %d matches, enumerate+filter %d",
						seed, tau, mode, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("seed=%d tau=%v mode=%v: match %d = %+v, want %+v",
							seed, tau, mode, k, got[k], want[k])
					}
				}
				if gst.Comparisons > wst.Comparisons {
					t.Fatalf("seed=%d tau=%v mode=%v: generated %d candidates, more than the %d enumerated pairs",
						seed, tau, mode, gst.Comparisons, wst.Comparisons)
				}
				if gst.LowerPruned+gst.UpperAccepted+gst.ExactComputed != gst.Comparisons {
					t.Fatalf("seed=%d tau=%v mode=%v: accounting %+v does not cover the candidates",
						seed, tau, mode, gst)
				}
			}
		}
	}
}

// TestJoinBoundedMatchSetsUnchanged is the bounded-mode property test:
// filtered joins (which seed GTED with the threshold as a cutoff) must
// report exactly the match set of the plain exhaustive join, while
// never evaluating more DP cells — and, once the threshold leaves an
// undecided middle, strictly fewer. Runs on a parallel engine so the
// per-pair cutoffs are exercised race-clean. (Indexed joins, whose
// candidates additionally carry index lower bounds, are pinned to the
// filtered join by corpus's TestJoinIndexedEquivalence.)
func TestJoinBoundedMatchSetsUnchanged(t *testing.T) {
	for seed := int64(21); seed <= 23; seed++ {
		trees := joinCorpus(seed, 14, 30)
		e := batch.New(batch.WithWorkers(4))
		ps := e.PrepareAll(trees)
		var prunedSomewhere bool
		for _, tau := range []float64{2, 5, 12, 40, math.Inf(1)} {
			plain, pst := joinSorted(e, ps, tau, false)
			filt, fst := joinSorted(e, ps, tau, true)
			if len(plain) != len(filt) {
				t.Fatalf("seed=%d tau=%v: bounded join found %d matches, plain %d",
					seed, tau, len(filt), len(plain))
			}
			for k := range plain {
				if plain[k].I != filt[k].I || plain[k].J != filt[k].J {
					t.Fatalf("seed=%d tau=%v: match %d differs: %+v vs %+v",
						seed, tau, k, plain[k], filt[k])
				}
			}
			if fst.Subproblems > pst.Subproblems {
				t.Fatalf("seed=%d tau=%v: bounded join evaluated %d subproblems, plain %d",
					seed, tau, fst.Subproblems, pst.Subproblems)
			}
			if fst.PrunedSubproblems > 0 {
				prunedSomewhere = true
			}
		}
		if !prunedSomewhere {
			t.Fatalf("seed=%d: no threshold ever engaged the DP cutoff", seed)
		}
	}
}

// TestParseIndexMode: every mode parses back from its String, the
// aliases and any letter case parse, "" means auto, and an unknown name
// fails.
func TestParseIndexMode(t *testing.T) {
	for _, m := range []batch.IndexMode{batch.IndexAuto, batch.IndexEnumerate, batch.IndexHistogram, batch.IndexPQGram} {
		if got, err := batch.ParseIndexMode(m.String()); err != nil || got != m {
			t.Errorf("ParseIndexMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	cases := map[string]batch.IndexMode{
		"":          batch.IndexAuto,
		"AUTO":      batch.IndexAuto,
		"enum":      batch.IndexEnumerate,
		"hist":      batch.IndexHistogram,
		"Histogram": batch.IndexHistogram,
		"pq":        batch.IndexPQGram,
		"PQGram":    batch.IndexPQGram,
	}
	for s, want := range cases {
		if got, err := batch.ParseIndexMode(s); err != nil || got != want {
			t.Errorf("ParseIndexMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := batch.ParseIndexMode("made-up"); err == nil {
		t.Error("unknown index mode accepted")
	}
}
