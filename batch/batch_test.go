package batch_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/gen"
	"repro/internal/strategy"
)

func randomTrees(seed int64, n, size int) []*ted.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*ted.Tree, n)
	for i := range out {
		out[i] = gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 1 + rng.Intn(size), MaxDepth: 9, MaxFanout: 5, Labels: 4,
		})
	}
	return out
}

// TestEngineMatchesDistance cross-checks the engine against the
// sequential public API on random trees of varied shapes and sizes.
func TestEngineMatchesDistance(t *testing.T) {
	trees := randomTrees(1, 12, 70)
	e := batch.New(batch.WithWorkers(1))
	ps := e.PrepareAll(trees)
	for i := range trees {
		for j := range trees {
			want := ted.Distance(trees[i], trees[j])
			if got := e.Distance(ps[i], ps[j]); got != want {
				t.Fatalf("pair (%d,%d): engine %v, Distance %v", i, j, got, want)
			}
		}
	}
}

// TestArenaReuseNoLeakage is the arena regression test: one worker
// computes a long, shape-diverse sequence of pairs through a single
// reused arena (large pairs followed by small ones, so stale DP state
// from a big pair sits underneath every small pair), and every result
// must match a fresh computation.
func TestArenaReuseNoLeakage(t *testing.T) {
	big := []*ted.Tree{gen.LeftBranch(90), gen.FullBinary(63), gen.ZigZag(80)}
	small := randomTrees(2, 10, 25)
	trees := append(append([]*ted.Tree{}, big...), small...)
	e := batch.New(batch.WithWorkers(1))
	ps := e.PrepareAll(trees)
	// Interleave big and small pairs; repeat each comparison twice so the
	// second run executes on a dirty arena whose buffers fit without
	// growing.
	for round := 0; round < 2; round++ {
		for i := range trees {
			for j := range trees {
				want := ted.Distance(trees[i], trees[j])
				if got := e.Distance(ps[i], ps[j]); got != want {
					t.Fatalf("round %d pair (%d,%d): engine %v, fresh %v", round, i, j, got, want)
				}
			}
		}
	}
}

// TestPutWSCapsArena: after an exact pair above the pooled-arena cap,
// putWS leaves the workspace's GTED arena at or under the cap, so one
// large pair does not pin its DP memory in the pool.
func TestPutWSCapsArena(t *testing.T) {
	f := gen.Random(91, gen.RandomSpec{Size: 600, MaxDepth: 12, MaxFanout: 6, Labels: 8})
	g := gen.Random(92, gen.RandomSpec{Size: 600, MaxDepth: 12, MaxFanout: 6, Labels: 8})
	if cells := f.Len() * g.Len(); cells <= batch.MaxPooledArenaCells {
		t.Fatalf("the pair has %d cells, not above the cap %d", cells, batch.MaxPooledArenaCells)
	}
	e := batch.New(batch.WithWorkers(1))
	if cells := batch.PooledArenaCells(e, e.Prepare(f), e.Prepare(g)); cells > batch.MaxPooledArenaCells {
		t.Fatalf("the pooled arena kept %d matrix cells, above the cap %d", cells, batch.MaxPooledArenaCells)
	}
}

// TestConcurrentDistance hammers one engine from many goroutines (race
// detector coverage for the workspace pool and the shared label table).
func TestConcurrentDistance(t *testing.T) {
	trees := randomTrees(4, 8, 50)
	e := batch.New(batch.WithWorkers(4))
	ps := e.PrepareAll(trees)
	want := make([][]float64, len(trees))
	for i := range trees {
		want[i] = make([]float64, len(trees))
		for j := range trees {
			want[i][j] = ted.Distance(trees[i], trees[j])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 30; n++ {
				i, j := rng.Intn(len(ps)), rng.Intn(len(ps))
				if got := e.Distance(ps[i], ps[j]); got != want[i][j] {
					t.Errorf("concurrent pair (%d,%d): got %v want %v", i, j, got, want[i][j])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestJoinFilteredEquivalence checks that the filtered parallel join
// reports the same match set as the unfiltered one, with upper-bound
// distances only ever over-reporting, and that the filter accounting is
// consistent.
func TestJoinFilteredEquivalence(t *testing.T) {
	trees := randomTrees(5, 12, 40)
	e := batch.New(batch.WithWorkers(4))
	ps := e.PrepareAll(trees)
	for _, tau := range []float64{3, 8, 15} {
		plain, pst := joinSorted(e, ps, tau, false)
		filt, fst := joinSorted(e, ps, tau, true)
		if len(plain) != len(filt) {
			t.Fatalf("tau=%v: filtered join found %d pairs, plain %d", tau, len(filt), len(plain))
		}
		for k := range plain {
			if plain[k].I != filt[k].I || plain[k].J != filt[k].J {
				t.Fatalf("tau=%v: match %d differs: %+v vs %+v", tau, k, plain[k], filt[k])
			}
			if filt[k].Dist < plain[k].Dist || filt[k].Dist >= tau {
				t.Fatalf("tau=%v: filtered distance %v out of [%v, %v)", tau, filt[k].Dist, plain[k].Dist, tau)
			}
		}
		if fst.LowerPruned+fst.UpperAccepted+fst.ExactComputed != fst.Comparisons {
			t.Fatalf("tau=%v: filter accounting %+v does not cover all comparisons", tau, fst)
		}
		if pst.Comparisons != len(trees)*(len(trees)-1)/2 {
			t.Fatalf("tau=%v: %d comparisons", tau, pst.Comparisons)
		}
		if fst.Subproblems > pst.Subproblems {
			t.Fatalf("tau=%v: filtered join computed more subproblems (%d) than plain (%d)",
				tau, fst.Subproblems, pst.Subproblems)
		}
	}
}

// TestTopKMatchesPublicAPI checks the engine's scan over one data tree
// against the public SubtreeDistances matrix, fully sorted: one exact
// run, so every distance is the matrix's.
func TestTopKMatchesPublicAPI(t *testing.T) {
	query := gen.Random(70, gen.RandomSpec{Size: 9, MaxDepth: 4, MaxFanout: 3, Labels: 3})
	data := gen.Random(71, gen.RandomSpec{Size: 60, MaxDepth: 8, MaxFanout: 4, Labels: 3})
	e := batch.New()
	q, d := e.Prepare(query), e.Prepare(data)
	for _, k := range []int{1, 4, 100} {
		want := perTreeTopK(query, []*ted.Tree{data}, k)
		got, st, err := e.TopKAcross(context.Background(), q, []*batch.PreparedTree{d}, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d matches, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d match %d: got %+v want %+v", k, i, got[i], want[i])
			}
		}
		if st.Subproblems <= 0 || st.PrunedSubproblems != 0 {
			t.Fatalf("k=%d: a one-tree scan is one exact run, got %+v", k, st)
		}
	}
}

// TestDistanceBounded checks the early-exit contract: pruned answers are
// true lower bounds at or above tau, and unpruned answers are exact.
func TestDistanceBounded(t *testing.T) {
	trees := randomTrees(6, 10, 40)
	e := batch.New(batch.WithWorkers(1))
	ps := e.PrepareAll(trees)
	pruned, exact := 0, 0
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			want := ted.Distance(trees[i], trees[j])
			for _, tau := range []float64{1, want, want + 1, 1e9} {
				got, isExact := e.DistanceBounded(ps[i], ps[j], tau)
				if isExact {
					exact++
					if got != want {
						t.Fatalf("pair (%d,%d) tau=%v: exact %v want %v", i, j, tau, got, want)
					}
				} else {
					pruned++
					if got < tau || got > want {
						t.Fatalf("pair (%d,%d) tau=%v: pruned lb %v not in [tau, %v]", i, j, tau, got, want)
					}
				}
			}
		}
	}
	if pruned == 0 || exact == 0 {
		t.Fatalf("bound test never exercised both branches (pruned=%d exact=%d)", pruned, exact)
	}
}

// TestDistanceBoundedContract checks the ≤-threshold contract against the
// public API: (d, true) iff Distance ≤ tau, with pruned answers being
// true lower bounds in [tau, d].
func TestDistanceBoundedContract(t *testing.T) {
	trees := randomTrees(16, 8, 40)
	e := batch.New(batch.WithWorkers(1))
	ps := e.PrepareAll(trees)
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			want := ted.Distance(trees[i], trees[j])
			for _, tau := range []float64{0, want / 2, want - 0.5, want, want + 0.5, 1e9} {
				got, ok := e.DistanceBounded(ps[i], ps[j], tau)
				if ok != (want <= tau) {
					t.Fatalf("pair (%d,%d) tau=%v: ok=%v, exact %v", i, j, tau, ok, want)
				}
				if ok && got != want {
					t.Fatalf("pair (%d,%d) tau=%v: got %v, exact %v", i, j, tau, got, want)
				}
				if !ok && (got < tau || got > want) {
					t.Fatalf("pair (%d,%d) tau=%v: lower bound %v outside [tau, %v]", i, j, tau, got, want)
				}
			}
		}
	}
}

// perTreeTopK is the reference for TopKAcross, independent of the scan
// it checks: every data tree's subtree distances from the public
// SubtreeDistances matrix, merged, fully sorted under the
// (Dist, Tree, Root) order and cut to k.
func perTreeTopK(query *ted.Tree, data []*ted.Tree, k int) []batch.CrossMatch {
	var want []batch.CrossMatch
	for di, d := range data {
		m := ted.SubtreeDistances(query, d)
		for w := 0; w < d.Len(); w++ {
			want = append(want, batch.CrossMatch{Tree: di, Root: w, Dist: m.At(query.Root(), w)})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		if a.Tree != b.Tree {
			return a.Tree < b.Tree
		}
		return a.Root < b.Root
	})
	if len(want) > k {
		want = want[:k]
	}
	return want
}

// checkTopKAcross runs TopKAcross and fails unless it equals the
// per-tree merge exactly.
func checkTopKAcross(t *testing.T, e *batch.Engine, q *batch.PreparedTree, ps []*batch.PreparedTree, k int) batch.Stats {
	t.Helper()
	data := make([]*ted.Tree, len(ps))
	for i, p := range ps {
		data[i] = p.Tree()
	}
	want := perTreeTopK(q.Tree(), data, k)
	got, st, err := e.TopKAcross(context.Background(), q, ps, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("k=%d: %d matches, want %d", k, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("k=%d match %d: got %+v want %+v", k, i, got[i], want[i])
		}
	}
	return st
}

// TestTopKAcrossMatchesPerTree checks that the bound-ordered,
// cutoff-shrinking multi-tree top-k returns exactly the merge of
// per-tree exact top-k runs, and that the shrinking cutoff actually
// pruned DP work.
func TestTopKAcrossMatchesPerTree(t *testing.T) {
	query := gen.Random(90, gen.RandomSpec{Size: 12, MaxDepth: 5, MaxFanout: 3, Labels: 3})
	var data []*ted.Tree
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 12; i++ {
		data = append(data, gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 20 + rng.Intn(40), MaxDepth: 8, MaxFanout: 4, Labels: 3,
		}))
	}
	e := batch.New()
	q := e.Prepare(query)
	ps := e.PrepareAll(data)
	for _, k := range []int{1, 5, 17} {
		st := checkTopKAcross(t, e, q, ps, k)
		if k == 1 && st.PrunedSubproblems == 0 {
			t.Fatal("k=1 across 12 trees pruned nothing — the shrinking cutoff is not reaching GTED")
		}
	}

	// A corpus over several alphabets: parse-tree, XML-record and random
	// labels, each tree also stored twice (and the query once verbatim),
	// so distances and subtree bounds tie across trees and the
	// (Tree, Root) tie-break decides the result.
	var mixed []*ted.Tree
	for i := 0; i < 6; i++ {
		mixed = append(mixed,
			gen.TreeBankLike(rng.Int63(), 8+rng.Intn(25)),
			gen.SwissProtLike(rng.Int63(), 8+rng.Intn(25)),
			gen.Random(rng.Int63(), gen.RandomSpec{Size: 5 + rng.Intn(25), MaxDepth: 6, MaxFanout: 4, Labels: 4}))
	}
	mixed = append(mixed, mixed[4], mixed[0], mixed[7], mixed[4])
	queries := []*ted.Tree{
		gen.RenameSome(mixed[0], 2, 92),
		gen.RenameSome(mixed[1], 1, 93),
		mixed[2],
		gen.TreeBankLike(94, 6),
	}
	mixed = append(mixed, queries[2])
	all := 0
	for _, d := range mixed {
		all += d.Len()
	}
	for _, eng := range []*batch.Engine{batch.New(), batch.New(batch.WithWorkers(1))} {
		ps := eng.PrepareAll(mixed)
		for _, qt := range queries {
			q := eng.Prepare(qt)
			for _, k := range []int{1, 5, 17, all + 1} {
				checkTopKAcross(t, eng, q, ps, k)
			}
		}
	}

	// The stop must be strict. Tree 1 is the query (bound 0) and fills
	// the top 2 with its root at 0 and its leaf b at 1. Tree 0, visited
	// next, has bound 1 — equal to the 2nd best — and its root at
	// distance 1 wins the tie on the smaller tree index.
	tie := e.PrepareAll([]*ted.Tree{ted.MustParse("{a{c}}"), ted.MustParse("{a{b}}")})
	checkTopKAcross(t, e, e.Prepare(ted.MustParse("{a{b}}")), tie, 2)
}

// TestTopKAcrossStopsAtBound pins the early stop: next to one renamed
// copy of the query, trees over a disjoint alphabet have a subtree bound
// of |Q| — beyond any k-th best the copy supplies — so the scan visits
// the copy first, wherever it sits, and runs no DP on anything else.
func TestTopKAcrossStopsAtBound(t *testing.T) {
	query := gen.TreeBankLike(95, 20)
	cp := gen.RenameSome(query, 1, 96)
	rng := rand.New(rand.NewSource(97))
	var data []*ted.Tree
	for i := 0; i < 8; i++ {
		data = append(data,
			gen.Random(rng.Int63(), gen.RandomSpec{Size: 10 + rng.Intn(40), MaxDepth: 8, MaxFanout: 4, Labels: 5}),
			gen.SwissProtLike(rng.Int63(), 10+rng.Intn(40)))
	}
	data = append(data[:5], append([]*ted.Tree{cp}, data[5:]...)...)
	e := batch.New()
	q := e.Prepare(query)
	ps := e.PrepareAll(data)
	for _, k := range []int{1, 3} {
		st := checkTopKAcross(t, e, q, ps, k)
		_, alone, _ := e.TopKAcross(context.Background(), q, ps[5:6], k)
		if st.Subproblems != alone.Subproblems {
			t.Fatalf("k=%d: scan evaluated %d subproblems, the copy alone %d — trees past the bound ran DP",
				k, st.Subproblems, alone.Subproblems)
		}
	}
}

// TestTopKAcrossSkipsByEulerBound pins the per-tree skip. Every data
// tree carries the query's label multiset, so the label bound (0) visits
// them all, in position order. The near copy first — two leaf labels
// swapped, distance 2 — sets the 1st best to 2. The chains of the same
// labels come next: their Euler-string bound exceeds 2, so they run no
// DP. The exact copy after them still runs (its Euler bound is 0) and
// takes the top spot, which a scan that stopped at the first chain
// would miss.
func TestTopKAcrossSkipsByEulerBound(t *testing.T) {
	query := ted.MustParse("{a{b{c}{d}}{e{f}{g}}{h{i}{j}}}")
	chain := func(labels string) *ted.Tree {
		s := ""
		for _, l := range labels {
			s += "{" + string(l)
		}
		return ted.MustParse(s + strings.Repeat("}", len(labels)))
	}
	data := []*ted.Tree{
		ted.MustParse("{a{b{d}{c}}{e{f}{g}}{h{i}{j}}}"),
		chain("abcdefghij"),
		chain("jihgfedcba"),
		chain("acdbfgeijh"),
		query,
	}
	e := batch.New()
	q := e.Prepare(query)
	ps := e.PrepareAll(data)
	st := checkTopKAcross(t, e, q, ps, 1)
	near := batch.TopKRun(e, q, ps[0], math.Inf(1))
	exact := batch.TopKRun(e, q, ps[4], 2)
	if want := near.Subproblems + exact.Subproblems; st.Subproblems != want {
		t.Fatalf("scan evaluated %d subproblems, the two copies %d — the chains ran DP", st.Subproblems, want)
	}
}

// TestBoundedAllocFree is the bounded-mode allocation regression test:
// bounded runs in a warm arena must stay as allocation-free as exact
// runs — the cutoff machinery may not allocate per pair. The cutoffs
// must reach both row layouts: the near copy of the query runs its DP at
// tau 2 on narrow bands stored as compressed rows (a second arena-owned
// slab), and every pair at 1e9 keeps full-width rows.
func TestBoundedAllocFree(t *testing.T) {
	query := gen.Random(85, gen.RandomSpec{Size: 50, MaxDepth: 8, MaxFanout: 4, Labels: 4})
	others := append(randomTrees(86, 12, 50), gen.RenameSome(query, 2, 87))
	var compressed, fullWidth bool
	for _, tau := range []float64{2, 25, 1e9} {
		for _, p := range others {
			var st ted.Stats
			ted.DistanceBounded(query, p, tau, ted.WithStats(&st))
			compressed = compressed || st.CompressedRows > 0
			fullWidth = fullWidth || (st.RowCells > 0 && st.CompressedRows == 0)
		}
	}
	if !compressed || !fullWidth {
		t.Fatalf("cutoffs reach compressed rows: %v, full-width rows: %v; want both", compressed, fullWidth)
	}
	e := batch.New(batch.WithWorkers(1))
	q := e.Prepare(query)
	ps := e.PrepareAll(others)
	// Warm the workspace pool, the arena, and the lazy bound profiles
	// through both DistanceBounded branches.
	for _, p := range ps {
		e.DistanceBounded(q, p, 2)
		e.DistanceBounded(q, p, 1e9)
	}
	for _, tau := range []float64{2, 25, 1e9} {
		perPair := testing.AllocsPerRun(3, func() {
			for _, p := range ps {
				e.DistanceBounded(q, p, tau)
			}
		}) / float64(len(ps))
		// Same bound as the exact-path steady-state test: a handful of
		// fixed-size descriptors per pair, no DP-sized allocations.
		if !raceEnabled && perPair > 16 {
			t.Fatalf("tau=%v: bounded steady state allocates %.1f objects per pair", tau, perPair)
		}
	}
}

// TestBoundedBytesPerPair pins the bytes (not just objects) of warm
// bounded runs at a narrow cutoff, pair by pair: with arena-owned rows
// and pooled strategy scratch, the steady state may allocate a few
// fixed-size descriptors per pair but nothing DP-sized. The profiled
// lower bound rejects the random pairs at tau 2 before any DP, so a
// 2-rename copy of the query makes one pair run the strategy DP and
// GTED, and is measured on its own.
// TotalAlloc is cumulative so GC cannot skew the deltas. From warm-up
// through measurement the test runs on one P with the collector off: a
// GC empties the workspace pool, and sync.Pool keeps the warm workspace
// in a per-P slot that a goroutine moved to another P cannot take, and
// either way the next pair would re-grow its arena and strategy scratch.
func TestBoundedBytesPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("race shadow state distorts byte accounting")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const tau = 2
	query := gen.Random(87, gen.RandomSpec{Size: 50, MaxDepth: 8, MaxFanout: 4, Labels: 4})
	others := append(randomTrees(88, 12, 50), gen.RenameSome(query, 2, 89))
	var st ted.Stats
	if _, ok := ted.DistanceBounded(query, others[len(others)-1], tau, ted.WithStats(&st)); !ok || st.Subproblems == 0 {
		t.Fatalf("the near copy does not run the DP at tau %d: %+v", tau, st)
	}
	e := batch.New(batch.WithWorkers(1))
	q := e.Prepare(query)
	ps := e.PrepareAll(others)
	for _, p := range ps {
		e.DistanceBounded(q, p, tau)
		e.DistanceBounded(q, p, 1e9)
	}
	const reps = 5
	for i, p := range ps {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for rep := 0; rep < reps; rep++ {
			e.DistanceBounded(q, p, tau)
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / reps
		// A 50-node pair's smallest DP table is tens of KB, its strategy
		// scratch 60 KB; 2 KB proves both come from pooled memory.
		if perRun > 2048 {
			t.Fatalf("pair %d: warm bounded runs allocate %.0f bytes each at tau=%d; DP memory must be pooled", i, perRun, tau)
		}
	}
}

// TestEngineStrategyPrice pins which strategy each engine runs: a
// default engine the time-priced one, a WithPaperStrategy engine the
// paper's, each evaluating exactly its strategy's analytic subproblems.
func TestEngineStrategyPrice(t *testing.T) {
	f, g := gen.Mixed(60), gen.ZigZag(60)
	var s strategy.OptScratch
	priced, _ := s.Opt(f, g, strategy.TimePrice)
	want := map[string]int64{
		"default": strategy.Count(f, g, priced).Total,
		"paper":   ted.OptimalStrategyCost(f, g),
	}
	if want["default"] == want["paper"] {
		t.Fatalf("scenario broken: both strategies count %d subproblems", want["paper"])
	}
	for name, e := range map[string]*batch.Engine{
		"default": batch.New(batch.WithWorkers(1)),
		"paper":   batch.New(batch.WithWorkers(1), batch.WithPaperStrategy()),
	} {
		_, st := joinSorted(e, e.PrepareAll([]*ted.Tree{f, g}), math.Inf(1), false)
		if st.Comparisons != 1 || st.Subproblems != want[name] {
			t.Errorf("%s engine evaluated %d subproblems over %d pairs, its strategy counts %d for 1",
				name, st.Subproblems, st.Comparisons, want[name])
		}
	}
}

// TestMixedEnginePanics pins the cross-engine misuse check.
func TestMixedEnginePanics(t *testing.T) {
	e1, e2 := batch.New(), batch.New()
	p1 := e1.Prepare(ted.MustParse("{a{b}}"))
	p2 := e2.Prepare(ted.MustParse("{a{c}}"))
	defer func() {
		if recover() == nil {
			t.Fatal("mixing engines did not panic")
		}
	}()
	e1.Distance(p1, p2)
}

// TestPreparedDoesLessWork is the acceptance allocation test: preparing
// a tree once and comparing it against N others must allocate strictly
// less than N independent Distance calls, which redo the per-tree work
// (indexes, decompositions, interning, DP tables) every time.
func TestPreparedDoesLessWork(t *testing.T) {
	query := gen.Random(80, gen.RandomSpec{Size: 50, MaxDepth: 8, MaxFanout: 4, Labels: 4})
	others := randomTrees(81, 16, 50)

	e := batch.New(batch.WithWorkers(1))
	q := e.Prepare(query)
	ps := e.PrepareAll(others)
	// Warm the workspace pool and grow the arena to its steady state.
	for _, p := range ps {
		e.Distance(q, p)
	}

	naive := testing.AllocsPerRun(3, func() {
		for _, o := range others {
			ted.Distance(query, o)
		}
	})
	batched := testing.AllocsPerRun(3, func() {
		for _, p := range ps {
			e.Distance(q, p)
		}
	})
	if batched >= naive {
		t.Fatalf("batched comparisons allocate %.0f objects, naive %.0f — batching must do strictly less work", batched, naive)
	}
	// In steady state the per-pair hot path should be close to
	// allocation-free: a handful of fixed-size descriptors per pair
	// (runner, pair cost views), not O(n²) DP tables. The race runtime
	// allocates shadow state of its own, so the bound only holds without
	// it.
	if perPair := batched / float64(len(ps)); !raceEnabled && perPair > 16 {
		t.Fatalf("steady-state engine allocates %.1f objects per pair; arenas should keep this O(1)", perPair)
	}
}

// TestWeightedCostEngine cross-checks the engine under a non-unit model
// against the sequential API. This exercises the pooled rename memos:
// the same workspaces serve two different engines (and models) back to
// back, so a stale memo surviving the engine switch would corrupt the
// second engine's distances.
func TestWeightedCostEngine(t *testing.T) {
	trees := randomTrees(7, 8, 40)
	for _, m := range []ted.CostModel{
		ted.WeightedCost(2, 3, 1),
		ted.WeightedCost(1, 1, 5),
	} {
		e := batch.New(batch.WithWorkers(2), batch.WithCost(m))
		ps := e.PrepareAll(trees)
		for i := range trees {
			for j := range trees {
				want := ted.Distance(trees[i], trees[j], ted.WithCost(m))
				if got := e.Distance(ps[i], ps[j]); got != want {
					t.Fatalf("model %v pair (%d,%d): engine %v, Distance %v", m, i, j, got, want)
				}
			}
		}
	}
}
