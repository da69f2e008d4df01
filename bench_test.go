// Benchmarks regenerating one representative point of every table and
// figure in the paper's evaluation (Section 8). The full grids are
// produced by cmd/tedbench; these testing.B benchmarks pin the same code
// paths into `go test -bench` so regressions in any experiment's
// workload are visible. Custom metrics report the paper's cost measure
// (relevant subproblems) alongside wall-clock time.
package ted_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/gen"
	"repro/internal/difftest"
)

// ---- Figure 8: subproblem counts per shape (analytic counting path) ----

func benchCount(b *testing.B, t *ted.Tree) {
	b.Helper()
	algs := []ted.Algorithm{ted.ZhangL, ted.ZhangR, ted.KleinH, ted.DemaineH, ted.RTED}
	for _, alg := range algs {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			var c int64
			for i := 0; i < b.N; i++ {
				c = ted.CountSubproblems(t, t, alg)
			}
			b.ReportMetric(float64(c), "subproblems")
		})
	}
}

func BenchmarkFig8a_LB(b *testing.B) { benchCount(b, gen.LeftBranch(401)) }
func BenchmarkFig8b_RB(b *testing.B) { benchCount(b, gen.RightBranch(401)) }
func BenchmarkFig8c_FB(b *testing.B) { benchCount(b, gen.FullBinary(511)) }
func BenchmarkFig8d_ZZ(b *testing.B) { benchCount(b, gen.ZigZag(401)) }
func BenchmarkFig8e_Random(b *testing.B) {
	benchCount(b, gen.Random(7, gen.RandomSpec{Size: 401, MaxDepth: 15, MaxFanout: 6, Labels: 8}))
}
func BenchmarkFig8f_MX(b *testing.B) { benchCount(b, gen.Mixed(401)) }

// ---- Figure 9: distance runtimes per shape ----

func benchDistance(b *testing.B, t *ted.Tree) {
	b.Helper()
	for _, alg := range []ted.Algorithm{ted.ZhangShashaClassic, ted.DemaineH, ted.RTED} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			var st ted.Stats
			for i := 0; i < b.N; i++ {
				ted.Distance(t, t, ted.WithAlgorithm(alg), ted.WithStats(&st))
			}
			b.ReportMetric(float64(st.Subproblems), "subproblems")
		})
	}
}

func BenchmarkFig9a_FB(b *testing.B) { benchDistance(b, gen.FullBinary(255)) }
func BenchmarkFig9b_ZZ(b *testing.B) { benchDistance(b, gen.ZigZag(301)) }
func BenchmarkFig9c_MX(b *testing.B) { benchDistance(b, gen.Mixed(301)) }

// ---- Table 1: the similarity join ----

func BenchmarkTable1_Join(b *testing.B) {
	const n = 120
	trees := []*ted.Tree{
		gen.LeftBranch(n),
		gen.RightBranch(n),
		gen.FullBinary(n),
		gen.ZigZag(n),
		gen.Random(42, gen.RandomSpec{Size: n, MaxDepth: 15, MaxFanout: 6, Labels: 8}),
	}
	for _, alg := range []ted.Algorithm{ted.ZhangL, ted.ZhangR, ted.KleinH, ted.DemaineH, ted.RTED} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			var r ted.JoinResult
			for i := 0; i < b.N; i++ {
				r = ted.Join(trees, float64(n)/2, ted.WithAlgorithm(alg))
			}
			b.ReportMetric(float64(r.Subproblems), "subproblems")
		})
	}
}

// ---- Figure 10: strategy-computation overhead ----

func benchFig10(b *testing.B, f, g *ted.Tree) {
	b.Helper()
	var st ted.Stats
	for i := 0; i < b.N; i++ {
		ted.Distance(f, g, ted.WithStats(&st))
	}
	b.ReportMetric(100*st.StrategyTime.Seconds()/st.TotalTime.Seconds(), "strategy%")
}

func BenchmarkFig10a_TreeBank(b *testing.B) {
	benchFig10(b, gen.TreeBankLike(1, 150), gen.TreeBankLike(2, 150))
}
func BenchmarkFig10b_SwissProt(b *testing.B) {
	benchFig10(b, gen.SwissProtLike(1, 400), gen.SwissProtLike(2, 400))
}
func BenchmarkFig10c_Random(b *testing.B) {
	benchFig10(b,
		gen.Random(1, gen.RandomSpec{Size: 400, MaxDepth: 25, MaxFanout: 8, Labels: 16}),
		gen.Random(2, gen.RandomSpec{Size: 400, MaxDepth: 25, MaxFanout: 8, Labels: 16}))
}

// ---- Table 2: subproblem ratios on TreeFam-like phylogenies ----

func BenchmarkTable2_TreeFam(b *testing.B) {
	f := gen.TreeFamLike(1, 451)
	g := gen.TreeFamLike(2, 701)
	var rted, best int64
	for i := 0; i < b.N; i++ {
		rted = ted.CountSubproblems(f, g, ted.RTED)
		best = -1
		for _, alg := range []ted.Algorithm{ted.ZhangL, ted.ZhangR, ted.KleinH, ted.DemaineH} {
			if c := ted.CountSubproblems(f, g, alg); best == -1 || c < best {
				best = c
			}
		}
	}
	b.ReportMetric(100*float64(rted)/float64(best), "pct_of_best")
}

// ---- Figure 10: the strategy computation alone (OptStrategy, O(n²)) ----

func BenchmarkStrategyOnly(b *testing.B) {
	t := gen.Random(3, gen.RandomSpec{Size: 1000, MaxDepth: 15, MaxFanout: 6, Labels: 8})
	var c int64
	for i := 0; i < b.N; i++ {
		c = ted.OptimalStrategyCost(t, t)
	}
	b.ReportMetric(float64(c), "opt_cost")
}

// ---- Micro-benchmarks of the substrates ----

func BenchmarkParseBracket(b *testing.B) {
	s := gen.Random(4, gen.RandomSpec{Size: 1000, MaxDepth: 15, MaxFanout: 6, Labels: 8}).String()
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		if _, err := ted.Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapping(b *testing.B) {
	f := gen.Random(5, gen.RandomSpec{Size: 60, MaxDepth: 8, MaxFanout: 4, Labels: 4})
	g := gen.Random(6, gen.RandomSpec{Size: 60, MaxDepth: 8, MaxFanout: 4, Labels: 4})
	for i := 0; i < b.N; i++ {
		ted.Mapping(f, g)
	}
}

// ---- Bounds: the join filters of Section 7 ----

func boundsPair() (*ted.Tree, *ted.Tree) {
	f := gen.TreeFamLike(7, 401)
	g := gen.TreeFamLike(8, 401)
	return f, g
}

func BenchmarkBoundsLower(b *testing.B) {
	f, g := boundsPair()
	for i := 0; i < b.N; i++ {
		ted.LowerBound(f, g)
	}
}

func BenchmarkBoundsConstrained(b *testing.B) {
	f, g := boundsPair()
	for i := 0; i < b.N; i++ {
		ted.ConstrainedDistance(f, g)
	}
}

func BenchmarkBoundsPQGram(b *testing.B) {
	f, g := boundsPair()
	for i := 0; i < b.N; i++ {
		ted.PQGramDistance(f, g, 2, 3)
	}
}

// BenchmarkBoundsVsExact pins the premise of the join filters: the upper
// bound is orders of magnitude cheaper than the exact distance.
func BenchmarkBoundsVsExact(b *testing.B) {
	f, g := boundsPair()
	b.Run("constrained-UB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ted.ConstrainedDistance(f, g)
		}
	})
	b.Run("exact-RTED", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ted.Distance(f, g)
		}
	})
}

// ---- Bounded distances under non-unit costs ----

// BenchmarkDistanceBoundedWeighted runs DistanceBounded over every pair
// of difftest.Corpus(7, 30, 80) at cutoffs of a quarter, a half and 0.9
// of each pair's distance, under the three non-unit models of
// boundedModels. Non-unit models skip the bound prefilter, so the root
// check of bounded GTED is all that refuses a pair before its DP:
// refused/op counts the runs it refused and subproblems/op the DP cells
// evaluated. A weaker check reads as fewer refusals, more subproblems
// and more ns/op.
func BenchmarkDistanceBoundedWeighted(b *testing.B) {
	trees := difftest.Corpus(7, 30, 80)
	for _, bm := range boundedModels {
		if bm.m == ted.UnitCost {
			continue
		}
		type pair struct {
			f, g *ted.Tree
			d    float64
		}
		var pairs []pair
		for i := range trees {
			for j := i + 1; j < len(trees); j++ {
				pairs = append(pairs, pair{trees[i], trees[j], ted.Distance(trees[i], trees[j], ted.WithCost(bm.m))})
			}
		}
		for _, frac := range []float64{0.25, 0.5, 0.9} {
			b.Run(fmt.Sprintf("%s/tau=%gd", bm.name, frac), func(b *testing.B) {
				var refused, subs int64
				for i := 0; i < b.N; i++ {
					refused, subs = 0, 0
					for _, p := range pairs {
						var st ted.Stats
						ted.DistanceBounded(p.f, p.g, frac*p.d, ted.WithCost(bm.m), ted.WithStats(&st))
						refused += st.PrunedKeyroots
						subs += st.Subproblems
					}
				}
				b.ReportMetric(float64(refused), "refused/op")
				b.ReportMetric(float64(subs), "subproblems/op")
			})
		}
	}
}

// BenchmarkDistanceBoundedNear runs DistanceBounded on near-duplicate
// pairs, the inputs whose bands stay thin: a TreeBank-like, a
// SwissProt-like and a random (8 labels) tree at n = 150, 300 and 500,
// each against a copy with 3 random renames, deletes or inserts, at
// τ = d + 2. Every pair is within its cutoff, so no bound refuses it and
// the run is the bounded kernel alone. subproblems/op counts the DP
// cells evaluated and subproblems/ntau2 divides them by max(|F|,|G|)·τ²,
// the O(n·τ²) cost of Jin et al.'s bounded tree edit distance: a kernel
// whose cells grow faster than n·τ² reads as a rising ratio along n.
func BenchmarkDistanceBoundedNear(b *testing.B) {
	shapes := []struct {
		name string
		gen  func(n int) *ted.Tree
	}{
		{"TreeBank", func(n int) *ted.Tree { return gen.TreeBankLike(int64(n), n) }},
		{"SwissProt", func(n int) *ted.Tree { return gen.SwissProtLike(int64(n), n) }},
		{"Random", func(n int) *ted.Tree {
			return gen.Random(int64(n), gen.RandomSpec{Size: n, MaxDepth: 15, MaxFanout: 6, Labels: 8})
		}},
	}
	for _, sh := range shapes {
		for _, n := range []int{150, 300, 500} {
			f := sh.gen(n)
			g := nearCopy(f, 3, int64(n))
			tau := ted.Distance(f, g) + 2
			b.Run(fmt.Sprintf("%s/n=%d", sh.name, n), func(b *testing.B) {
				var st ted.Stats
				for i := 0; i < b.N; i++ {
					if _, ok := ted.DistanceBounded(f, g, tau, ted.WithStats(&st)); !ok {
						b.Fatalf("near pair beyond its cutoff %v", tau)
					}
				}
				ntau2 := float64(max(f.Len(), g.Len())) * tau * tau
				b.ReportMetric(float64(st.Subproblems), "subproblems/op")
				b.ReportMetric(float64(st.Subproblems)/ntau2, "subproblems/ntau2")
			})
		}
	}
}

// nearCopy returns a copy of t after edits random edit operations, each a
// rename, a delete (the node's children take its place) or an insert (a
// new node adopts a run of a node's children); the root is renamed, never
// deleted. Deterministic in seed.
func nearCopy(t *ted.Tree, edits int, seed int64) *ted.Tree {
	rng := rand.New(rand.NewSource(seed))
	root := t.Builder(t.Root())
	for e := 0; e < edits; e++ {
		var nodes, parents []*ted.Node
		var walk func(nd, p *ted.Node)
		walk = func(nd, p *ted.Node) {
			nodes, parents = append(nodes, nd), append(parents, p)
			for _, c := range nd.Children {
				walk(c, nd)
			}
		}
		walk(root, nil)
		k := rng.Intn(len(nodes))
		nd, p := nodes[k], parents[k]
		label := fmt.Sprintf("e%d", rng.Intn(50))
		switch op := rng.Intn(3); {
		case op == 0 || op == 1 && p == nil:
			nd.Label = label
		case op == 1:
			j := slices.Index(p.Children, nd)
			p.Children = slices.Replace(p.Children, j, j+1, nd.Children...)
		default:
			lo := rng.Intn(len(nd.Children) + 1)
			hi := lo + rng.Intn(len(nd.Children)-lo+1)
			ins := &ted.Node{Label: label, Children: slices.Clone(nd.Children[lo:hi])}
			nd.Children = slices.Replace(nd.Children, lo, hi, ins)
		}
	}
	return ted.Build(root)
}

// ---- Filtered and parallel joins ----

func joinTrees() []*ted.Tree {
	var trees []*ted.Tree
	for i := int64(0); i < 10; i++ {
		trees = append(trees, gen.TreeFamLike(i, 101))
	}
	return trees
}

func BenchmarkJoinFiltered(b *testing.B) {
	trees := joinTrees()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ted.Join(trees, 8)
		}
	})
	b.Run("filtered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ted.Join(trees, 8, ted.WithFilters())
		}
	})
}

func BenchmarkJoinParallel(b *testing.B) {
	trees := joinTrees()
	for _, w := range []int{1, 4} {
		w := w
		b.Run(map[int]string{1: "workers-1", 4: "workers-4"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ted.Join(trees, 50, ted.WithWorkers(w))
			}
		})
	}
}

func BenchmarkTopKSubtrees(b *testing.B) {
	query := gen.TreeBankLike(1, 25)
	data := gen.TreeBankLike(2, 400)
	for i := 0; i < b.N; i++ {
		ted.TopKSubtrees(query, data, 5)
	}
}

// ---- The batch engine (see package batch) ----

func batchBenchTrees() []*ted.Tree {
	var trees []*ted.Tree
	for i := int64(0); i < 16; i++ {
		trees = append(trees, gen.TreeFamLike(i, 61))
	}
	return trees
}

// BenchmarkBatchJoinVsSequential pins the engine's headline: the same
// all-pairs workload through (a) the naive sequential loop — a fresh
// Distance call per pair, redoing the per-tree work every time — and (b)
// the batch engine at one worker and at all cores. On a multi-core
// machine the worker-pool variant adds near-linear speedup on top of the
// single-worker amortization win.
func BenchmarkBatchJoinVsSequential(b *testing.B) {
	trees := batchBenchTrees()
	b.Run("sequential-pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for x := 0; x < len(trees); x++ {
				for y := x + 1; y < len(trees); y++ {
					ted.Distance(trees[x], trees[y])
				}
			}
		}
	})
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		w := w
		b.Run(fmt.Sprintf("engine-%dworker", w), func(b *testing.B) {
			// Engine construction and tree preparation are measured too:
			// the engine must win end-to-end, not just per pair.
			for i := 0; i < b.N; i++ {
				e := batch.New(batch.WithWorkers(w))
				ps := e.PrepareAll(trees)
				e.JoinStream(context.Background(), ps, 1e18, false, func(batch.Match) {})
			}
		})
	}
}

// BenchmarkBatchPrepareOnce isolates the PreparedTree amortization: one
// query compared against N data trees, with the naive path re-deriving
// the query's indexes, decomposition and cost vectors N times and the
// engine preparing everything exactly once and reusing one arena.
func BenchmarkBatchPrepareOnce(b *testing.B) {
	query := gen.TreeBankLike(3, 101)
	var data []*ted.Tree
	for i := int64(10); i < 34; i++ {
		data = append(data, gen.TreeBankLike(i, 101))
	}
	b.Run("naive-distance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range data {
				ted.Distance(query, d)
			}
		}
	})
	b.Run("engine-prepared", func(b *testing.B) {
		e := batch.New(batch.WithWorkers(1))
		q := e.Prepare(query)
		pd := e.PrepareAll(data)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range pd {
				e.Distance(q, d)
			}
		}
	})
}
