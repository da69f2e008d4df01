package ted_test

import (
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
	calls := []struct {
		name  string
		exact bool
		run   func(*ted.Stats)
	}{
		{"TopKSubtrees", true, func(st *ted.Stats) { ted.TopKSubtrees(query, data, 3, ted.WithStats(st)) }},
		{"TopKSubtreesAcross", false, func(st *ted.Stats) {
			ted.TopKSubtreesAcross(query, []*ted.Tree{data, gen.Mixed(40)}, 3, ted.WithStats(st))
		}},
		{"SubtreeDistances", true, func(st *ted.Stats) { ted.SubtreeDistances(query, data, ted.WithStats(st)) }},
	}
	for _, c := range calls {
		var st ted.Stats
		if _, ok := ted.DistanceBounded(gen.ZigZag(60), data, 6, ted.WithStats(&st)); !ok || st.PrunedSubproblems == 0 {
			t.Fatalf("scenario broken: the bounded run should succeed and prune, got %+v", st)
		}
		c.run(&st)
		var fresh ted.Stats
		c.run(&fresh)
		st.TotalTime, fresh.TotalTime = 0, 0
		if st != fresh {
			t.Errorf("%s after a bounded call reports %+v, on a fresh Stats %+v", c.name, st, fresh)
		}
		if st.Subproblems == 0 || st.RowCells == 0 {
			t.Errorf("%s reports no work: %+v", c.name, st)
		}
		if c.exact && (st.PrunedSubproblems != 0 || st.BandSkippedCells != 0 || st.CompressedRows != 0) {
			t.Errorf("%s is an exact run but reports pruning: %+v", c.name, st)
		}
	}
}

// TestJoinStatsMatchEngine checks that a filtered ted.Join reports every
// kernel counter the batch engine's JoinStats counts on the same trees,
// including the cells its cutoff-seeded exact stage pruned. ted.Join's
// RTED runs the paper's strategy, so the engine does too.
func TestJoinStatsMatchEngine(t *testing.T) {
	var trees []*ted.Tree
	for n := 40; n <= 55; n += 3 {
		trees = append(trees, gen.ZigZag(n), gen.Mixed(n))
	}
	const tau = 6
	var st ted.Stats
	r := ted.Join(trees, tau, ted.WithFilters(), ted.WithStats(&st))

	e := batch.New(batch.WithWorkers(1), batch.WithPaperStrategy())
	ms, js := e.Join(e.PrepareAll(trees), tau, true)
	if len(r.Pairs) != len(ms) {
		t.Fatalf("ted.Join found %d matches, the engine %d", len(r.Pairs), len(ms))
	}
	if js.PrunedSubproblems == 0 {
		t.Fatalf("scenario broken: the engine's exact stage pruned nothing: %+v", js)
	}
	got := [6]int64{st.Subproblems, st.PrunedSubproblems, st.BandSkippedCells,
		st.PrunedKeyroots, st.CompressedRows, st.RowCells}
	want := [6]int64{js.Subproblems, js.PrunedSubproblems, js.BandSkippedCells,
		js.PrunedKeyroots, js.CompressedRows, js.RowCells}
	if got != want {
		t.Fatalf("ted.Join counters (subs, pruned, band, keyroots, compressed rows, row cells) = %v, engine %v", got, want)
	}
}
