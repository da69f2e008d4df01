package ted_test

import (
	"context"
	"runtime"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/gen"
)

// TestWithStatsFreshPerCall checks that every WithStats call reports
// its own counters in full: a call overwrites what an earlier call left
// in the Stats, instead of updating only the fields it knows about.
// Each call after a bounded run must equal the same call on a fresh
// Stats, and the exact ones must report no pruning.
func TestWithStatsFreshPerCall(t *testing.T) {
	query, data := gen.LeftBranch(5), gen.ZigZag(66)
	// none marks the calls that return before any run: their Stats must
	// read all zero.
	calls := []struct {
		name        string
		exact, none bool
		run         func(*ted.Stats)
	}{
		{"Distance", true, false, func(st *ted.Stats) { ted.Distance(query, data, ted.WithStats(st)) }},
		{"Distance ZhangL", true, false, func(st *ted.Stats) {
			ted.Distance(query, data, ted.WithAlgorithm(ted.ZhangL), ted.WithStats(st))
		}},
		{"TopKSubtrees", true, false, func(st *ted.Stats) { ted.TopKSubtrees(query, data, 3, ted.WithStats(st)) }},
		{"TopKSubtreesAcross", false, false, func(st *ted.Stats) {
			ted.TopKSubtreesAcross(query, []*ted.Tree{data, gen.Mixed(40)}, 3, ted.WithStats(st))
		}},
		{"SubtreeDistances", true, false, func(st *ted.Stats) { ted.SubtreeDistances(query, data, ted.WithStats(st)) }},
		{"TopKSubtrees k=0", true, true, func(st *ted.Stats) { ted.TopKSubtrees(query, data, 0, ted.WithStats(st)) }},
		{"TopKSubtreesAcross k=0", true, true, func(st *ted.Stats) {
			ted.TopKSubtreesAcross(query, []*ted.Tree{data}, 0, ted.WithStats(st))
		}},
		{"TopKSubtreesAcross no data", true, true, func(st *ted.Stats) { ted.TopKSubtreesAcross(query, nil, 3, ted.WithStats(st)) }},
	}
	for _, c := range calls {
		var st ted.Stats
		if _, ok := ted.DistanceBounded(gen.ZigZag(60), data, 6, ted.WithStats(&st)); !ok || st.PrunedSubproblems == 0 {
			t.Fatalf("scenario broken: the bounded run should succeed and prune, got %+v", st)
		}
		c.run(&st)
		var fresh ted.Stats
		c.run(&fresh)
		st.StrategyTime, fresh.StrategyTime = 0, 0
		st.TotalTime, fresh.TotalTime = 0, 0
		if st != fresh {
			t.Errorf("%s after a bounded call reports %+v, on a fresh Stats %+v", c.name, st, fresh)
		}
		if c.none && st != (ted.Stats{}) {
			t.Errorf("%s runs nothing but reports %+v", c.name, st)
		}
		if !c.none && (st.Subproblems == 0 || st.RowCells == 0) {
			t.Errorf("%s reports no work: %+v", c.name, st)
		}
		if c.exact && (st.PrunedSubproblems != 0 || st.BandSkippedCells != 0 || st.CompressedRows != 0) {
			t.Errorf("%s is an exact run but reports pruning: %+v", c.name, st)
		}
	}
}

// engineJoin runs the engine's join to completion and collects its
// matches.
func engineJoin(e *batch.Engine, ps []*batch.PreparedTree, tau float64, filtered bool) ([]batch.Match, batch.JoinStats) {
	var ms []batch.Match
	st, err := e.JoinStream(context.Background(), ps, tau, filtered, func(m batch.Match) { ms = append(ms, m) })
	if err != nil {
		panic(err) // no context to cancel
	}
	return ms, st
}

// TestJoinStatsMatchEngine checks that a filtered ted.Join reports every
// kernel counter the batch engine's JoinStats counts on the same trees,
// including the cells its cutoff-seeded exact stage pruned and its
// single-path calls. ted.Join's RTED runs the paper's strategy, so the
// engine does too. Unfiltered, a paper-strategy engine on all cores must
// run exactly the subproblems of a per-pair ted.Distance loop and find
// its matches.
func TestJoinStatsMatchEngine(t *testing.T) {
	var trees []*ted.Tree
	for n := 40; n <= 55; n += 3 {
		trees = append(trees, gen.ZigZag(n), gen.Mixed(n))
	}
	const tau = 6
	var st ted.Stats
	r := ted.Join(trees, tau, ted.WithFilters(), ted.WithStats(&st))

	e := batch.New(batch.WithWorkers(1), batch.WithPaperStrategy())
	ms, js := engineJoin(e, e.PrepareAll(trees), tau, true)
	if len(r.Pairs) != len(ms) {
		t.Fatalf("ted.Join found %d matches, the engine %d", len(r.Pairs), len(ms))
	}
	if js.PrunedSubproblems == 0 || js.SPFCalls == 0 {
		t.Fatalf("scenario broken: the engine's exact stage pruned nothing or made no single-path calls: %+v", js)
	}
	if st.Counters != js.Counters {
		t.Fatalf("ted.Join counters %+v, engine %+v", st.Counters, js.Counters)
	}

	var subs int64
	var matches int
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			var ds ted.Stats
			if ted.Distance(trees[i], trees[j], ted.WithStats(&ds)) < tau {
				matches++
			}
			subs += ds.Subproblems
		}
	}
	pe := batch.New(batch.WithWorkers(runtime.GOMAXPROCS(0)), batch.WithPaperStrategy())
	pms, pst := engineJoin(pe, pe.PrepareAll(trees), tau, false)
	if len(pms) != matches || pst.Subproblems != subs {
		t.Fatalf("engine on %d workers: %d matches, %d subproblems; per-pair ted.Distance: %d, %d",
			runtime.GOMAXPROCS(0), len(pms), pst.Subproblems, matches, subs)
	}
}
