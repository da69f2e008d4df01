package corpus_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
)

var allModes = []batch.IndexMode{batch.IndexAuto, batch.IndexEnumerate, batch.IndexHistogram, batch.IndexPQGram}

// indexSources stores trees in the two corpora candidates can come
// from: one without a maintained index (each join builds a throwaway
// index over its snapshot) and one maintaining both indexes. Trees get
// IDs 0..n−1, their collection positions.
func indexSources(trees []*ted.Tree) map[string]*corpus.Corpus {
	out := map[string]*corpus.Corpus{
		"throwaway":  corpus.New(),
		"maintained": corpus.New(corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2)),
	}
	for _, c := range out {
		for _, tr := range trees {
			c.Add(tr)
		}
	}
	return out
}

// engineJoin is the batch engine's join sorted by (I, J), the reference
// the corpus joins are checked against.
func engineJoin(e *batch.Engine, ps []*batch.PreparedTree, tau float64, filtered bool) ([]batch.Match, batch.JoinStats) {
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

// sortMatches orders ms by (I, J), the buffered joins' order.
func sortMatches(ms []corpus.Match) {
	slices.SortFunc(ms, func(a, b corpus.Match) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
}

// checkMatches fails unless got equals the batch join's want pair for
// pair, distances included, on a corpus whose IDs are the positions.
func checkMatches(t *testing.T, label string, got []corpus.Match, want []batch.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, enumerate+filter %d", label, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != (corpus.Match{I: corpus.ID(w.I), J: corpus.ID(w.J), Dist: w.Dist}) {
			t.Fatalf("%s: match %d = %+v, want %+v", label, k, got[k], w)
		}
	}
}

// TestJoinIndexedEquivalence is the acceptance property test of
// candidate generation: in every mode, from either index source and at
// every threshold, including the degenerate 0 and +Inf, Join,
// JoinRangeStream over every position and the union of JoinRangeStream
// over a partition of the probe positions
// must return exactly the batch engine's enumerate+filter match set —
// same pairs, same reported distances — visiting no more pairs than
// enumeration, with every visited pair accounted to one filter outcome.
func TestJoinIndexedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		trees := randomTrees(seed, 12+2*int(seed), 25)
		n := len(trees)
		// Uneven ranges, one empty and two reaching past the positions.
		ranges := [][2]int{{-3, n / 3}, {n / 3, n / 3}, {n / 3, n - 2}, {n - 2, n + 5}}
		ref := batch.New(batch.WithWorkers(4))
		refPs := ref.PrepareAll(trees)
		for source, c := range indexSources(trees) {
			e := c.Engine(batch.WithWorkers(4))
			for _, tau := range []float64{0, 1, 3.5, 8, 20, 60, math.Inf(1)} {
				want, wst := engineJoin(ref, refPs, tau, true)
				for _, mode := range allModes {
					label := fmt.Sprintf("seed=%d %s tau=%v mode=%v", seed, source, tau, mode)
					opts := batch.JoinOptions{Mode: mode}
					got, gst := c.Join(e, tau, opts)
					checkMatches(t, label+" Join", got, want)

					var streamed []corpus.Match
					if _, err := c.JoinRangeStream(context.Background(), e, tau, opts, 0, math.MaxInt, func(m corpus.Match) {
						streamed = append(streamed, m)
					}); err != nil {
						t.Fatalf("%s: JoinRangeStream over every position: %v", label, err)
					}
					sortMatches(streamed)
					checkMatches(t, label+" JoinRangeStream over every position", streamed, want)

					var ranged []corpus.Match
					var rst batch.JoinStats
					for _, r := range ranges {
						st, err := c.JoinRangeStream(context.Background(), e, tau, opts, r[0], r[1], func(m corpus.Match) {
							ranged = append(ranged, m)
						})
						if err != nil {
							t.Fatalf("%s: JoinRangeStream: %v", label, err)
						}
						rst.Merge(st)
					}
					sortMatches(ranged)
					checkMatches(t, label+" JoinRangeStream", ranged, want)

					for name, st := range map[string]batch.JoinStats{"Join": gst, "JoinRangeStream": rst} {
						if st.Comparisons > wst.Comparisons {
							t.Fatalf("%s %s: generated %d candidates, more than the %d enumerated pairs",
								label, name, st.Comparisons, wst.Comparisons)
						}
						if st.LowerPruned+st.UpperAccepted+st.ExactComputed != st.Comparisons {
							t.Fatalf("%s %s: accounting %+v does not cover the candidates", label, name, st)
						}
					}
					if mode == batch.IndexAuto && math.IsInf(tau, 1) && gst.Mode != batch.IndexEnumerate {
						t.Fatalf("%s: auto mode resolved to %v, want enumerate", label, gst.Mode)
					}
				}
			}
		}
	}
}

// TestJoinIndexedPrunes pins the point of candidate generation: on a
// corpus with diverse labels and a selective threshold, both indexes —
// maintained or built per call — and the auto mode visit strictly fewer
// pairs than enumeration, and the stats name the generator that ran. On
// single-label shape trees, the signatures' worst case where every pair
// shares every label, they must still prune by the size bound.
func TestJoinIndexedPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var random []*ted.Tree
	for i := 0; i < 24; i++ {
		random = append(random, gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 20 + rng.Intn(20), MaxDepth: 8, MaxFanout: 5, Labels: 40,
		}))
	}
	var shapes []*ted.Tree
	for _, n := range []int{16, 20, 24, 32} {
		shapes = append(shapes, gen.LeftBranch(n), gen.RightBranch(n), gen.FullBinary(n), gen.ZigZag(n), gen.Mixed(n))
	}
	for name, tc := range map[string]struct {
		trees []*ted.Tree
		tau   float64
	}{
		"random": {random, 6},
		"shapes": {shapes, 2},
	} {
		for source, c := range indexSources(tc.trees) {
			e := c.Engine()
			_, est := c.Join(e, tc.tau, batch.JoinOptions{Mode: batch.IndexEnumerate})
			for _, mode := range []batch.IndexMode{batch.IndexHistogram, batch.IndexPQGram, batch.IndexAuto} {
				_, st := c.Join(e, tc.tau, batch.JoinOptions{Mode: mode})
				if st.Comparisons >= est.Comparisons {
					t.Fatalf("%s %s mode %v generated %d candidates; enumeration visits %d — the index pruned nothing",
						name, source, mode, st.Comparisons, est.Comparisons)
				}
				if st.Mode == batch.IndexAuto {
					t.Fatalf("%s %s mode %v: stats report unresolved mode %v", name, source, mode, st.Mode)
				}
			}
		}
	}
}

// TestJoinNonUnitCost pins the cost-model requirement of candidate
// generation: under a non-unit model Join ignores the mode and runs the
// unfiltered enumeration, and JoinRangeStream, which only filters, panics.
func TestJoinNonUnitCost(t *testing.T) {
	trees := randomTrees(5, 8, 12)
	model := ted.WeightedCost(2, 2, 1)
	ref := batch.New(batch.WithCost(model))
	want, _ := engineJoin(ref, ref.PrepareAll(trees), 3, false)
	c := indexSources(trees)["maintained"]
	e := c.Engine(batch.WithCost(model))
	for _, mode := range allModes {
		got, st := c.Join(e, 3, batch.JoinOptions{Mode: mode})
		checkMatches(t, fmt.Sprintf("mode %v", mode), got, want)
		if st.Mode != batch.IndexEnumerate || st.Comparisons != len(trees)*(len(trees)-1)/2 {
			t.Fatalf("mode %v: ran %v over %d pairs, want unfiltered enumeration", mode, st.Mode, st.Comparisons)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("JoinRangeStream under a non-unit model did not panic")
		}
	}()
	c.JoinRangeStream(context.Background(), e, 3, batch.JoinOptions{}, 0, len(trees), func(corpus.Match) {})
}
