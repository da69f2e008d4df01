package batch_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
)

func streamTrees(n, size int) []*ted.Tree {
	trees := make([]*ted.Tree, n)
	for i := range trees {
		trees[i] = gen.Random(int64(40+i), gen.RandomSpec{Size: size, MaxDepth: 6, MaxFanout: 4, Labels: 8})
	}
	return trees
}

func streamFixture(t *testing.T, n, size int) (*batch.Engine, []*batch.PreparedTree) {
	t.Helper()
	e := batch.New(batch.WithWorkers(4))
	ps := make([]*batch.PreparedTree, n)
	for i, base := range streamTrees(n, size) {
		ps[i] = e.Prepare(base)
	}
	return e, ps
}

func matchKey(m batch.Match) string { return fmt.Sprintf("%d|%d|%.9f", m.I, m.J, m.Dist) }

// sortedKeys reduces a match set to a canonical multiset representation:
// streaming emits in completion order, so only the multiset is pinned.
func sortedKeys(ms []batch.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = matchKey(m)
	}
	sort.Strings(keys)
	return keys
}

// TestJoinStreamMatchesJoin pins the streaming contract: run to
// completion on four workers, JoinStream emits exactly the match
// multiset of ted.Join, the public buffered join (one worker, the
// paper's strategy), and the filter accounting agrees.
func TestJoinStreamMatchesJoin(t *testing.T) {
	e, ps := streamFixture(t, 12, 18)
	trees := streamTrees(12, 18)
	for _, tau := range []float64{2, 6, 12} {
		r := ted.Join(trees, tau, ted.WithFilters())
		want, wantSt := r.Pairs, r.JoinStats
		var got []batch.Match
		gotSt, err := e.JoinStream(context.Background(), ps, tau, true, func(m batch.Match) {
			got = append(got, m)
		})
		if err != nil {
			t.Fatalf("tau %g: JoinStream: %v", tau, err)
		}
		w, g := sortedKeys(want), sortedKeys(got)
		if len(w) != len(g) {
			t.Fatalf("tau %g: stream emitted %d matches, buffered %d", tau, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("tau %g: match multiset diverges at %d: %s vs %s", tau, i, g[i], w[i])
			}
		}
		if gotSt.Comparisons != wantSt.Comparisons ||
			gotSt.LowerPruned != wantSt.LowerPruned ||
			gotSt.UpperAccepted != wantSt.UpperAccepted ||
			gotSt.ExactComputed != wantSt.ExactComputed {
			t.Fatalf("tau %g: stream stats %+v diverge from buffered %+v", tau, gotSt, wantSt)
		}
	}
}

// TestJoinIndexedStreamMatchesJoinIndexed: the indexed streaming path
// (a mode's candidates through JoinCandidatesStream) emits the same
// multiset as the buffered indexed join, corpus.Join, per mode and
// threshold, and its filters resolve the pairs the same way.
func TestJoinIndexedStreamMatchesJoinIndexed(t *testing.T) {
	trees := streamTrees(10, 16)
	e := batch.New(batch.WithWorkers(4))
	ps := e.PrepareAll(trees)
	c := corpus.New()
	for _, tr := range trees {
		c.Add(tr)
	}
	ce := c.Engine(batch.WithWorkers(4))
	matched := false
	for _, tau := range []float64{5, 12, 20} {
		for _, mode := range []batch.IndexMode{batch.IndexAuto, batch.IndexEnumerate, batch.IndexHistogram, batch.IndexPQGram} {
			buffered, bst := c.Join(ce, tau, batch.JoinOptions{Mode: mode})
			want := make([]batch.Match, len(buffered))
			for k, m := range buffered {
				want[k] = batch.Match{I: int(m.I), J: int(m.J), Dist: m.Dist}
			}
			var got []batch.Match
			st, err := e.JoinCandidatesStream(context.Background(), ps, indexedCandidates(ps, bst.Mode, tau), tau, func(m batch.Match) {
				got = append(got, m)
			})
			if err != nil {
				t.Fatalf("tau %g mode %v: %v", tau, mode, err)
			}
			w, g := sortedKeys(want), sortedKeys(got)
			if fmt.Sprint(w) != fmt.Sprint(g) {
				t.Fatalf("tau %g mode %v: stream %v, buffered %v", tau, mode, g, w)
			}
			if st.Comparisons != bst.Comparisons || st.LowerPruned != bst.LowerPruned ||
				st.UpperAccepted != bst.UpperAccepted || st.ExactComputed != bst.ExactComputed {
				t.Fatalf("tau %g mode %v: stream stats %+v diverge from buffered %+v", tau, mode, st, bst)
			}
			matched = matched || len(want) > 0
		}
	}
	if !matched {
		t.Fatal("no threshold produced a match; the grid does not exercise emission")
	}
}

// TestJoinStreamCancel pins the early-exit contract: cancelling the
// context on the first emitted match stops the engine — the call
// returns ctx's error and the remaining pairs are abandoned, visible as
// an evaluated-pair count well below the planned all-pairs count.
func TestJoinStreamCancel(t *testing.T) {
	e, ps := streamFixture(t, 40, 24)
	total := len(ps) * (len(ps) - 1) / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	st, err := e.JoinStream(ctx, ps, 1e9, false, func(batch.Match) {
		emitted++
		cancel()
	})
	if err != context.Canceled {
		t.Fatalf("cancelled stream returned %v, want context.Canceled", err)
	}
	if emitted == 0 {
		t.Fatal("cancel hook never ran")
	}
	if st.Comparisons >= total {
		t.Fatalf("cancelled stream still evaluated all %d pairs", total)
	}
}

// TestTopKAcrossCancelled: a scan under a context cancelled up front
// returns ctx's error and does no work, and the same scan under a live
// context answers.
func TestTopKAcrossCancelled(t *testing.T) {
	e, ps := streamFixture(t, 8, 14)
	q := ps[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms, st, err := e.TopKAcross(ctx, q, ps[1:], 5)
	if err != context.Canceled {
		t.Fatalf("pre-cancelled scan returned %v, want context.Canceled", err)
	}
	if len(ms) != 0 || st.Subproblems != 0 || st.SPFCalls != 0 {
		t.Fatalf("pre-cancelled scan did work: %d matches, %+v", len(ms), st)
	}
	if ms, _, err := e.TopKAcross(context.Background(), q, ps[1:], 5); err != nil || len(ms) != 5 {
		t.Fatalf("live scan: %d matches, %v", len(ms), err)
	}
}
