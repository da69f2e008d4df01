package gted

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/tree"
	"repro/internal/treegen"
)

// stopCase is one pair a run is stopped on.
type stopCase struct {
	name string
	f, g *tree.Tree
	s    strategy.Strategy
}

// stopCases returns pairs whose runs take long enough to stop midway:
// zigzag against full binary under the heavy-path strategy and RTED's,
// whose single-path calls are mostly ΔI, and TreeBank-like trees under
// the left- and right-path strategies, which stay in ΔL/ΔR.
func stopCases() []stopCase {
	zz, fb := treegen.ZigZag(400), treegen.FullBinary(511)
	rng := rand.New(rand.NewSource(7))
	tb1, tb2 := treegen.TreeBankLike(rng, 800), treegen.TreeBankLike(rng, 800)
	opt, _ := strategy.Opt(zz, fb)
	return []stopCase{
		{"zigzag-fullbinary/DemaineH", zz, fb, strategy.DemaineH(zz, fb)},
		{"zigzag-fullbinary/RTED", zz, fb, opt},
		{"treebank/ZhangL", tb1, tb2, strategy.ZhangL()},
		{"treebank/ZhangR", tb1, tb2, strategy.ZhangR()},
	}
}

// arenaPairs returns difftest-sized pairs: the paper's shapes at 30 and
// 16 nodes against each other and random trees of up to 30 nodes over
// small alphabets.
func arenaPairs() [][2]*tree.Tree {
	var ts []*tree.Tree
	for _, n := range []int{30, 16} {
		for _, s := range treegen.Shapes {
			ts = append(ts, s.Build(n))
		}
	}
	rng := rand.New(rand.NewSource(3))
	for range 8 {
		ts = append(ts, treegen.Random(rng, treegen.RandomSpec{
			Size: 1 + rng.Intn(30), MaxDepth: 8, MaxFanout: 5, Labels: 1 + rng.Intn(5),
		}))
	}
	var pairs [][2]*tree.Tree
	for i := 0; i < len(ts); i += 4 {
		for j := 1; j < len(ts); j += 5 {
			pairs = append(pairs, [2]*tree.Tree{ts[i], ts[j]})
		}
	}
	return pairs
}

// checkArenaClean fails unless ar holds no ΔI row between calls and no
// keyroot scratch, and then unless every arenaPairs pair, under every
// strategy, exact and at a cutoff, computes on ar the matrix and
// counters a fresh arena computes, bit for bit.
func checkArenaClean(t *testing.T, label string, ar *Arena) {
	t.Helper()
	for i, row := range ar.rows {
		if row != nil {
			t.Fatalf("%s: the arena keeps ΔI row %d between calls", label, i)
		}
	}
	if len(ar.keyroots) != 0 {
		t.Fatalf("%s: the arena keeps %d keyroots between calls", label, len(ar.keyroots))
	}
	for _, p := range arenaPairs() {
		f, g := p[0], p[1]
		cm := cost.Compile(cost.Unit{}, f, g)
		for _, s := range strategiesFor(f, g) {
			for _, tau := range []float64{math.Inf(1), 4} {
				fresh := NewCompiled(f, g, cm, s)
				fresh.SetCutoff(tau)
				fresh.Run()
				got := NewInArena(f, g, cm, s, ar, new(atomic.Bool))
				got.SetCutoff(tau)
				got.Run()
				if got.Stats() != fresh.Stats() {
					t.Fatalf("%s: %s at tau %g on %d×%d nodes: counters %+v on the reused arena, %+v on a fresh one",
						label, s.Name(), tau, f.Len(), g.Len(), got.Stats(), fresh.Stats())
				}
				for i, d := range got.Matrix() {
					if math.Float64bits(d) != math.Float64bits(fresh.Matrix()[i]) {
						t.Fatalf("%s: %s at tau %g on %d×%d nodes: cell %d is %v on the reused arena, %v on a fresh one",
							label, s.Name(), tau, f.Len(), g.Len(), i, d, fresh.Matrix()[i])
					}
				}
			}
		}
	}
}

// TestStoppedRunLeavesArenaClean stops runs before they start and, from
// another goroutine, while they run (exact and bounded, in ΔI and in
// ΔL/ΔR), each on one shared arena, and requires every later run on
// that arena to compute what it computes on a fresh one.
func TestStoppedRunLeavesArenaClean(t *testing.T) {
	ar := NewArena()
	for _, c := range stopCases() {
		cm := cost.Compile(cost.Unit{}, c.f, c.g)
		full := strategy.Count(c.f, c.g, c.s).Total
		for _, tau := range []float64{math.Inf(1), 30} {
			var stop atomic.Bool
			stop.Store(true)
			r := NewInArena(c.f, c.g, cm, c.s, ar, &stop)
			r.SetCutoff(tau)
			r.Run()
			if st := r.Stats(); st != (Counters{}) {
				t.Fatalf("%s tau %g: a run stopped before it started did work: %+v", c.name, tau, st)
			}
			checkArenaClean(t, c.name+" stopped before", ar)

			cut := false
			for _, after := range []time.Duration{2 * time.Millisecond, 15 * time.Millisecond} {
				var stop atomic.Bool
				r := NewInArena(c.f, c.g, cm, c.s, ar, &stop)
				r.SetCutoff(tau)
				timer := time.AfterFunc(after, func() { stop.Store(true) })
				r.Run()
				timer.Stop()
				st := r.Stats()
				cut = cut || (st.Subproblems > 0 && st.Subproblems+st.PrunedSubproblems < full)
				checkArenaClean(t, c.name+" stopped during", ar)
			}
			if !cut {
				t.Fatalf("%s tau %g: no stop landed inside the run; the pair is too small to test it", c.name, tau)
			}
		}
	}
}
