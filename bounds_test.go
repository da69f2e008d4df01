package ted_test

import (
	"testing"

	ted "repro"
	"repro/gen"
)

func TestPublicBounds(t *testing.T) {
	for i := int64(0); i < 20; i++ {
		f := gen.Random(i, gen.RandomSpec{Size: 30, MaxDepth: 7, MaxFanout: 4, Labels: 3})
		g := gen.Random(i+100, gen.RandomSpec{Size: 25, MaxDepth: 7, MaxFanout: 4, Labels: 3})
		exact := ted.Distance(f, g)
		if lb := ted.LowerBound(f, g); lb > exact {
			t.Fatalf("LowerBound %v > exact %v", lb, exact)
		}
		if ub := ted.ConstrainedDistance(f, g); ub < exact {
			t.Fatalf("ConstrainedDistance %v < exact %v", ub, exact)
		}
	}
}

func TestPublicPQGram(t *testing.T) {
	f := ted.MustParse("{a{b}{c}}")
	g := ted.MustParse("{a{b}{d}}")
	d := ted.PQGramDistance(f, g, 2, 3)
	if d <= 0 || d >= 1 {
		t.Fatalf("pq-gram distance %v, want strictly inside (0,1)", d)
	}
	if ted.PQGramDistance(f, f, 2, 3) != 0 {
		t.Fatal("pq-gram self distance")
	}
}

// TestDistanceBoundedSkipsDP pins the bound-prefilter path: when the
// cheap lower bounds of the bounds.Profile pipeline already exceed tau,
// DistanceBounded must answer without launching the DP at all — zero
// subproblems evaluated — and report the profile bound itself.
func TestDistanceBoundedSkipsDP(t *testing.T) {
	f := gen.LeftBranch(40)
	g := ted.MustParse("{x}")
	lb := ted.LowerBound(f, g)
	if lb < 39 {
		t.Fatalf("size bound %v, want ≥ 39", lb)
	}
	var st ted.Stats
	got, ok := ted.DistanceBounded(f, g, 10, ted.WithStats(&st))
	if ok {
		t.Fatalf("distance ≥ %v reported within tau=10", lb)
	}
	if got != lb {
		t.Fatalf("skip path returned %v, want the profile bound %v", got, lb)
	}
	if st.Subproblems != 0 || st.PrunedSubproblems != 0 {
		t.Fatalf("DP ran despite lb %v > tau: %+v", lb, st)
	}
}

// TestDistanceBoundedPrunesDP pins the cutoff path: a same-size
// shape pair defeats the cheap bounds (lb below tau), so the DP must
// engage — and with the cutoff threaded in it decides the verdict while
// touching strictly fewer cells than the exact run. The chain-vs-binary
// pair has a huge height offset, so the run is expected to refuse the
// root keyroot subproblem outright (PrunedKeyroots > 0).
func TestDistanceBoundedPrunesDP(t *testing.T) {
	f := gen.LeftBranch(60)
	g := gen.FullBinary(63)
	var est ted.Stats
	d := ted.Distance(f, g, ted.WithStats(&est))
	lb := ted.LowerBound(f, g)
	tau := lb + 1
	if tau >= d {
		t.Fatalf("scenario broken: lb+1 = %v not under d = %v", tau, d)
	}
	var st ted.Stats
	got, ok := ted.DistanceBounded(f, g, tau, ted.WithStats(&st))
	if ok || got < tau {
		t.Fatalf("DistanceBounded(tau=%v) = (%v, %v) with d = %v", tau, got, ok, d)
	}
	if st.Subproblems == 0 && st.PrunedSubproblems == 0 {
		t.Fatal("DP never engaged — the prefilter should not fire here")
	}
	if st.PrunedSubproblems == 0 || st.Subproblems >= est.Subproblems {
		t.Fatalf("cutoff pruned nothing: bounded %d cells (%d pruned), exact %d",
			st.Subproblems, st.PrunedSubproblems, est.Subproblems)
	}
	if st.PrunedKeyroots == 0 {
		t.Fatalf("height offset %d vs tau %v should trip the keyroot band: %+v",
			59, tau, st)
	}
}

func TestJoinWorkersAndFilters(t *testing.T) {
	var trees []*ted.Tree
	for i := int64(0); i < 8; i++ {
		trees = append(trees, gen.TreeFamLike(i, 41))
	}
	tau := 30.0
	base := ted.Join(trees, tau)
	par := ted.Join(trees, tau, ted.WithWorkers(4))
	if len(par.Pairs) != len(base.Pairs) || par.Subproblems != base.Subproblems {
		t.Fatalf("parallel join differs: %d/%d pairs, %d/%d subproblems",
			len(par.Pairs), len(base.Pairs), par.Subproblems, base.Subproblems)
	}
	filt := ted.Join(trees, tau, ted.WithFilters())
	if len(filt.Pairs) != len(base.Pairs) {
		t.Fatalf("filtered join found %d pairs, want %d", len(filt.Pairs), len(base.Pairs))
	}
	if filt.LowerPruned+filt.UpperAccepted+filt.ExactComputed != filt.Comparisons {
		t.Fatalf("filter accounting inconsistent: %+v", filt)
	}
	// Filters skip work: never more subproblems than the plain join.
	if filt.Subproblems > base.Subproblems {
		t.Fatalf("filtered join computed more subproblems (%d) than plain (%d)",
			filt.Subproblems, base.Subproblems)
	}
	// Filtered joins reject non-unit cost models loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("filtered join with weighted costs did not panic")
		}
	}()
	ted.Join(trees, tau, ted.WithFilters(), ted.WithCost(ted.WeightedCost(2, 2, 2)))
}

// TestJoinWithIndex checks the public indexed-join path: every mode must
// reproduce the enumerating join's match set exactly, visit no more
// pairs, and report which generator ran.
func TestJoinWithIndex(t *testing.T) {
	var trees []*ted.Tree
	for i := int64(0); i < 10; i++ {
		trees = append(trees, gen.TreeFamLike(i, 35))
	}
	tau := 20.0
	base := ted.Join(trees, tau, ted.WithFilters())
	for _, mode := range []ted.IndexMode{ted.IndexAuto, ted.IndexEnumerate, ted.IndexHistogram, ted.IndexPQGram} {
		r := ted.Join(trees, tau, ted.WithIndex(mode), ted.WithWorkers(4))
		if len(r.Pairs) != len(base.Pairs) {
			t.Fatalf("mode %v: %d pairs, want %d", mode, len(r.Pairs), len(base.Pairs))
		}
		for k := range base.Pairs {
			if r.Pairs[k] != base.Pairs[k] {
				t.Fatalf("mode %v pair %d: %+v, want %+v", mode, k, r.Pairs[k], base.Pairs[k])
			}
		}
		if r.Comparisons > base.Comparisons {
			t.Fatalf("mode %v visited %d pairs, enumeration %d", mode, r.Comparisons, base.Comparisons)
		}
		if mode != ted.IndexAuto && r.Mode != mode {
			t.Fatalf("mode %v: result reports %v", mode, r.Mode)
		}
	}
	// Indexed joins reject non-unit cost models loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("indexed join with weighted costs did not panic")
		}
	}()
	ted.Join(trees, tau, ted.WithIndex(ted.IndexAuto), ted.WithCost(ted.WeightedCost(2, 2, 2)))
}
