package batch_test

import (
	"context"
	"fmt"

	ted "repro"
	"repro/batch"
)

// Prepare each tree once, then compare freely: the engine caches the
// per-tree work and reuses per-worker arenas across pairs.
func ExampleEngine() {
	e := batch.New(batch.WithWorkers(2))
	f := e.Prepare(ted.MustParse("{a{b}{c}}"))
	g := e.Prepare(ted.MustParse("{a{b{d}}}"))
	h := e.Prepare(ted.MustParse("{a{b}{c}{e}}"))
	fmt.Println(e.Distance(f, g))
	fmt.Println(e.Distance(f, h))
	// Output:
	// 2
	// 1
}

// A filtered similarity self-join on the worker pool: lower bounds
// prune pairs that cannot match, the constrained upper bound accepts
// pairs that must match, and only the undecided middle runs the exact
// algorithm. Matches arrive as their pairs resolve; cancelling the
// context would stop the join inside the pair it is running.
func ExampleEngine_JoinStream() {
	e := batch.New(batch.WithWorkers(4))
	ps := e.PrepareAll([]*ted.Tree{
		ted.MustParse("{a{b}{c}}"),
		ted.MustParse("{a{b}}"),
		ted.MustParse("{x{y}{z}}"),
	})
	stats, err := e.JoinStream(context.Background(), ps, 2, true, func(m batch.Match) {
		fmt.Printf("trees %d and %d match (distance %g)\n", m.I, m.J, m.Dist)
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d of %d pairs pruned by bounds\n",
		stats.LowerPruned+stats.UpperAccepted, stats.Comparisons)
	// Output:
	// trees 0 and 1 match (distance 1)
	// 3 of 3 pairs pruned by bounds
}
