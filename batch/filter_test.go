package batch_test

import (
	"context"
	"math"
	"sort"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/gen"
	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/zs"
)

// filterCorpus mixes joinCorpus's shapes with near-duplicates (one or
// two renames), so at small thresholds the upper bound accepts pairs, the
// lower bounds reject others, and some stay undecided for GTED.
func filterCorpus() []*ted.Tree {
	trees := joinCorpus(31, 10, 18)
	for i, n := 0, len(trees); i < n; i += 2 {
		trees = append(trees, gen.RenameSome(trees[i], 1+i%2, int64(i)))
	}
	return trees
}

// oracleJoin classifies every candidate pair in the order the filters
// were first written in — profiled lower bounds (with the candidate's own
// bound), then the constrained upper bound, then the exact distance —
// and returns the expected match set, ordered by (I, J), and counters.
func oracleJoin(trees []*ted.Tree, cands []batch.CandidatePair, tau float64) ([]batch.Match, batch.JoinStats) {
	var ms []batch.Match
	st := batch.JoinStats{Comparisons: len(cands)}
	for _, c := range cands {
		f, g := trees[c.I], trees[c.J]
		lb := math.Max(bounds.Lower(f, g), c.LB)
		if lb >= tau {
			st.LowerPruned++
			continue
		}
		if ub := bounds.Constrained(f, g); ub < tau {
			st.UpperAccepted++
			ms = append(ms, batch.Match{I: c.I, J: c.J, Dist: ub})
			continue
		}
		st.ExactComputed++
		if d := zs.Dist(f, g, cost.Unit{}); d < tau {
			ms = append(ms, batch.Match{I: c.I, J: c.J, Dist: d})
		}
	}
	return ms, st
}

// TestJoinFilterAccounting pins the filter stage by stage: the
// enumerating and candidate joins must report exactly the oracle's
// per-kind counters (lower-pruned, upper-accepted, exact) and match set,
// not merely the same total — reordering the filters must move cost,
// never classification.
func TestJoinFilterAccounting(t *testing.T) {
	trees := filterCorpus()
	e := batch.New(batch.WithWorkers(3))
	ps := e.PrepareAll(trees)
	var all, carried []batch.CandidatePair
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			all = append(all, batch.CandidatePair{I: i, J: j})
			// A carried bound that is valid but sometimes beats the size
			// bound, as an index's would.
			carried = append(carried, batch.CandidatePair{I: i, J: j, LB: bounds.LabelHistogram(trees[i], trees[j])})
		}
	}
	var kinds [3]int
	for _, tau := range []float64{0, 1, 2, 3, 5, math.Inf(1)} {
		want, wst := oracleJoin(trees, all, tau)
		wantCarried, cst := oracleJoin(trees, carried, tau)
		kinds[0] += wst.LowerPruned
		kinds[1] += wst.UpperAccepted
		kinds[2] += wst.ExactComputed

		check := func(name string, got []batch.Match, st batch.JoinStats, want []batch.Match, wst batch.JoinStats) {
			t.Helper()
			if st.Comparisons != wst.Comparisons || st.LowerPruned != wst.LowerPruned ||
				st.UpperAccepted != wst.UpperAccepted || st.ExactComputed != wst.ExactComputed {
				t.Fatalf("tau=%v %s: comparisons/lower/upper/exact = %d/%d/%d/%d, oracle %d/%d/%d/%d", tau, name,
					st.Comparisons, st.LowerPruned, st.UpperAccepted, st.ExactComputed,
					wst.Comparisons, wst.LowerPruned, wst.UpperAccepted, wst.ExactComputed)
			}
			if len(got) != len(want) {
				t.Fatalf("tau=%v %s: %d matches, oracle %d", tau, name, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("tau=%v %s: match %d = %+v, oracle %+v", tau, name, k, got[k], want[k])
				}
			}
		}
		collect := func(run func(emit func(batch.Match)) (batch.JoinStats, error)) ([]batch.Match, batch.JoinStats) {
			var ms []batch.Match
			st, err := run(func(m batch.Match) { ms = append(ms, m) })
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(ms, func(a, b int) bool {
				if ms[a].I != ms[b].I {
					return ms[a].I < ms[b].I
				}
				return ms[a].J < ms[b].J
			})
			return ms, st
		}
		ctx := context.Background()

		got, st := collect(func(emit func(batch.Match)) (batch.JoinStats, error) {
			return e.JoinStream(ctx, ps, tau, true, emit)
		})
		check("stream", got, st, want, wst)
		got, st = collect(func(emit func(batch.Match)) (batch.JoinStats, error) {
			return e.JoinCandidatesStream(ctx, ps, carried, tau, emit)
		})
		check("candidates", got, st, wantCarried, cst)
	}
	for k, name := range []string{"lower-pruned", "upper-accepted", "exact"} {
		if kinds[k] == 0 {
			t.Fatalf("no threshold produced a %s pair; the grid does not exercise every filter stage", name)
		}
	}
}

// TestJoinContextCancelled pins the joins' cancellation contract: with
// ctx already cancelled no pair is evaluated, no match is emitted and
// the error is ctx's.
func TestJoinContextCancelled(t *testing.T) {
	trees := filterCorpus()
	e := batch.New(batch.WithWorkers(2))
	ps := e.PrepareAll(trees)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cands := []batch.CandidatePair{{I: 0, J: 1}, {I: 2, J: 3}}
	for name, run := range map[string]func(emit func(batch.Match)) (batch.JoinStats, error){
		"join": func(emit func(batch.Match)) (batch.JoinStats, error) { return e.JoinStream(ctx, ps, 5, true, emit) },
		"candidates": func(emit func(batch.Match)) (batch.JoinStats, error) {
			return e.JoinCandidatesStream(ctx, ps, cands, 5, emit)
		},
	} {
		emitted := 0
		st, err := run(func(batch.Match) { emitted++ })
		if err != context.Canceled || emitted != 0 || st.Comparisons != 0 {
			t.Fatalf("%s: cancelled join emitted %d matches, %d comparisons, error %v", name, emitted, st.Comparisons, err)
		}
	}
}

// TestUpperAcceptAllocFree pins the point of pooling the constrained
// scratch: once a workspace is warm, a pair the upper bound accepts
// allocates nothing.
func TestUpperAcceptAllocFree(t *testing.T) {
	base := gen.Random(87, gen.RandomSpec{Size: 50, MaxDepth: 8, MaxFanout: 5, Labels: 20})
	e := batch.New(batch.WithWorkers(1))
	f, g := e.Prepare(base), e.Prepare(gen.RenameSome(base, 2, 88))
	accepted, allocs := batch.UpperAcceptAllocs(e, f, g, 4)
	if !accepted {
		t.Fatal("the upper bound did not accept a two-rename copy at tau=4")
	}
	if !raceEnabled && allocs != 0 {
		t.Fatalf("an upper-accepted pair allocates %.1f objects on a warm workspace", allocs)
	}
}
