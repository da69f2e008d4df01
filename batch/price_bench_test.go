package batch_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	ted "repro"
	"repro/batch"
	"repro/gen"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// priceSample is one timed run of the calibration: a pair, a strategy
// and a cutoff (+Inf for an exact run), with the strategy's analytic
// terms — single-path calls, ΔL/ΔR subproblems, ΔI subproblems.
type priceSample struct {
	f, g             *batch.PreparedTree
	s                strategy.Strategy
	tau              float64
	calls, lr, heavy float64
	ns               []float64
}

// pricePairs returns the calibration pairs: top-k-like pairs — a query
// (a stored tree with two renames) against its source and against five
// other trees of the benchmark's mixed 20–60-node corpus — and Fig 8
// shape pairs at 60 nodes, which spread the terms further apart.
func pricePairs() [][2]*ted.Tree {
	rng := rand.New(rand.NewSource(11))
	corpus := make([]*ted.Tree, 40)
	for i := range corpus {
		corpus[i] = benchShape(rng)
	}
	var pairs [][2]*ted.Tree
	for q := 0; q < 8; q++ {
		src := corpus[rng.Intn(len(corpus))]
		query := gen.RenameSome(src, 2, rng.Int63())
		pairs = append(pairs, [2]*ted.Tree{query, src})
		for k := 0; k < 5; k++ {
			pairs = append(pairs, [2]*ted.Tree{query, corpus[rng.Intn(len(corpus))]})
		}
	}
	const n = 60
	rnd := func(seed int64) *ted.Tree {
		return gen.Random(seed, gen.RandomSpec{Size: n, MaxDepth: 15, MaxFanout: 6, Labels: 8})
	}
	pairs = append(pairs,
		[2]*ted.Tree{gen.LeftBranch(n), gen.RightBranch(n)},
		[2]*ted.Tree{gen.FullBinary(n), gen.ZigZag(n)},
		[2]*ted.Tree{gen.Mixed(n), gen.ZigZag(n)},
		[2]*ted.Tree{gen.FullBinary(n), gen.FullBinary(n)},
		[2]*ted.Tree{rnd(1), rnd(2)},
		[2]*ted.Tree{gen.TreeBankLike(3, n), gen.SwissProtLike(4, n)},
	)
	return pairs
}

// priceStrategies returns the strategies the calibration times on one
// pair: the four fixed strategies of the paper, whose terms are mostly
// ΔL/ΔR (Zhang) or ΔI (Klein, Demaine) with few calls, and the paper's
// and the priced optimum, which make many calls.
func priceStrategies(f, g *tree.Tree) []strategy.Strategy {
	df, dg := strategy.NewDecomp(f), strategy.NewDecomp(g)
	paper, _ := strategy.OptD(f, g, df, dg)
	var s strategy.OptScratch
	priced, _ := s.Opt(f, g, df, dg, strategy.TimePrice)
	return []strategy.Strategy{
		strategy.ZhangL(), strategy.ZhangR(), strategy.KleinH(), strategy.DemaineH(f, g),
		paper, priced,
	}
}

// BenchmarkStrategyPrice calibrates strategy.TimePrice: it times the
// engine's exact runs (Distance) and bounded runs (a top-k pass at the
// pair's own 5th-best subtree distance) of every pricePairs pair under
// every priceStrategies strategy, and fits each run's median time to
// a·calls + b·ΔL/ΔR subproblems + c·ΔI subproblems (plus per-pair terms
// no strategy changes, see fitPrice) by least squares on relative
// error, with the analytic counts of strategy.Count — the terms the
// strategy DP can see. It reports a, b and c in ns per call and per
// subproblem, and a/b and c/b, the price in units of one ΔL/ΔR
// subproblem. The strategy DP is not timed (its cost is the same for
// every priced strategy). Run it with -benchtime 20x or more; 1x checks
// that it runs.
func BenchmarkStrategyPrice(b *testing.B) {
	for _, mode := range []string{"exact", "bounded"} {
		b.Run(mode, func(b *testing.B) {
			var cur strategy.Strategy
			e := batch.New(batch.WithWorkers(1), batch.WithStrategy(func(f, g *tree.Tree) strategy.Strategy { return cur }))
			var samples []*priceSample
			for _, p := range pricePairs() {
				f, g := e.Prepare(p[0]), e.Prepare(p[1])
				for _, s := range priceStrategies(p[0], p[1]) {
					c := strategy.Count(p[0], p[1], s)
					heavy := c.ByChoice[strategy.HeavyF] + c.ByChoice[strategy.HeavyG]
					sm := &priceSample{f: f, g: g, s: s, tau: math.Inf(1),
						calls: float64(c.SPFCalls), lr: float64(c.Total - heavy), heavy: float64(heavy)}
					if mode == "bounded" {
						cur = s
						ms, _ := e.TopKSubtrees(f, g, 5)
						sm.tau = ms[len(ms)-1].Dist
					}
					samples = append(samples, sm)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sm := range samples {
					cur = sm.s
					start := time.Now()
					if mode == "exact" {
						e.Distance(sm.f, sm.g)
					} else {
						batch.TopKRun(e, sm.f, sm.g, sm.tau)
					}
					sm.ns = append(sm.ns, float64(time.Since(start).Nanoseconds()))
				}
			}
			b.StopTimer()
			call, lr, heavy := fitPrice(samples)
			b.ReportMetric(call, "ns/call")
			b.ReportMetric(lr, "ns/LR")
			b.ReportMetric(heavy, "ns/I")
			b.ReportMetric(call/lr, "call/LR")
			b.ReportMetric(heavy/lr, "I/LR")
		})
	}
}

// fitPrice solves the least-squares fit of BenchmarkStrategyPrice: each
// sample's median time t against (calls, lr, heavy) plus two per-pair
// terms no strategy changes — a constant and the |F|·|G| cells of the
// subtree-distance matrix, whose set-up every run pays — with every row
// weighted by 1/t so that small top-k pairs count as much as large shape
// pairs. It returns the three strategy-dependent coefficients.
func fitPrice(samples []*priceSample) (call, lr, heavy float64) {
	const k = 5
	var ata [k][k + 1]float64 // normal equations, right-hand side last
	for _, sm := range samples {
		t := median(sm.ns)
		x := [k]float64{sm.calls, sm.lr, sm.heavy, 1, float64(sm.f.Len() * sm.g.Len())}
		for i := range x {
			x[i] /= t
		}
		for i := range x {
			for j := range x {
				ata[i][j] += x[i] * x[j]
			}
			ata[i][k] += x[i] // the weighted time, t/t
		}
	}
	// Gauss–Jordan elimination with partial pivoting.
	for c := 0; c < k; c++ {
		p := c
		for r := c + 1; r < k; r++ {
			if math.Abs(ata[r][c]) > math.Abs(ata[p][c]) {
				p = r
			}
		}
		ata[c], ata[p] = ata[p], ata[c]
		for r := 0; r < k; r++ {
			if r == c {
				continue
			}
			m := ata[r][c] / ata[c][c]
			for j := c; j <= k; j++ {
				ata[r][j] -= m * ata[c][j]
			}
		}
	}
	return ata[0][k] / ata[0][0], ata[1][k] / ata[1][1], ata[2][k] / ata[2][2]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// BenchmarkStrategyRobust compares engine time under the priced strategy
// (the engine default) and the paper's (WithPaperStrategy) on Fig 8
// shape pairs and on TreeBank-like, SwissProt-like and random pairs at
// 200 and 400 nodes. Each iteration runs both engines on the pair once,
// alternating which goes first; the pair reports each engine's median
// exact-run time and their ratio, which the priced strategy must keep
// at most 1.10.
func BenchmarkStrategyRobust(b *testing.B) {
	for _, n := range []int{200, 400} {
		rnd := func(seed int64) *ted.Tree {
			return gen.Random(seed, gen.RandomSpec{Size: n, MaxDepth: 15, MaxFanout: 6, Labels: 8})
		}
		pairs := []struct {
			name string
			f, g *ted.Tree
		}{
			{"LB-RB", gen.LeftBranch(n), gen.RightBranch(n)},
			{"FB-ZZ", gen.FullBinary(n), gen.ZigZag(n)},
			{"MX-ZZ", gen.Mixed(n), gen.ZigZag(n)},
			{"MX-RND", gen.Mixed(n), rnd(1)},
			{"RND-RND", rnd(2), rnd(3)},
			{"TB-TB", gen.TreeBankLike(4, n), gen.TreeBankLike(5, n)},
			{"SP-SP", gen.SwissProtLike(6, n), gen.SwissProtLike(7, n)},
		}
		for _, p := range pairs {
			b.Run(fmt.Sprintf("%s-%d", p.name, n), func(b *testing.B) {
				priced := batch.New(batch.WithWorkers(1))
				paper := batch.New(batch.WithWorkers(1), batch.WithPaperStrategy())
				pf, pg := priced.Prepare(p.f), priced.Prepare(p.g)
				qf, qg := paper.Prepare(p.f), paper.Prepare(p.g)
				var tPriced, tPaper []float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < 2; k++ {
						start := time.Now()
						if (i+k)%2 == 0 {
							priced.Distance(pf, pg)
							tPriced = append(tPriced, float64(time.Since(start).Nanoseconds()))
						} else {
							paper.Distance(qf, qg)
							tPaper = append(tPaper, float64(time.Since(start).Nanoseconds()))
						}
					}
				}
				b.StopTimer()
				mp, mq := median(tPriced), median(tPaper)
				b.ReportMetric(mp/1e6, "priced-ms")
				b.ReportMetric(mq/1e6, "paper-ms")
				b.ReportMetric(mp/mq, "ratio")
			})
		}
	}
}
