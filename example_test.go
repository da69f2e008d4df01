package ted_test

import (
	"fmt"

	ted "repro"
)

// The README's first example: two small trees, unit costs, RTED.
func ExampleDistance() {
	f := ted.MustParse("{a{b}{c}}")
	g := ted.MustParse("{a{b{d}}}")
	fmt.Println(ted.Distance(f, g))
	// Output: 2
}

// A weighted cost model: renames are cheap, structure changes expensive.
func ExampleDistance_weighted() {
	f := ted.MustParse("{a{b}{c}}")
	g := ted.MustParse("{a{x}{y}}")
	d := ted.Distance(f, g, ted.WithCost(ted.WeightedCost(10, 10, 0.5)))
	fmt.Println(d)
	// Output: 1
}

// The bounded distance answers "is the distance at most tau?" without
// always paying for the full computation: cheap lower bounds run first,
// and the DP itself skips every cell that provably exceeds tau. The
// distance is exact whenever it is within the cutoff.
func ExampleDistanceBounded() {
	f := ted.MustParse("{a{b}{c}}")
	g := ted.MustParse("{a{b{d}}}")
	if d, ok := ted.DistanceBounded(f, g, 3); ok {
		fmt.Printf("within cutoff: %g\n", d)
	}
	if _, ok := ted.DistanceBounded(f, g, 1); !ok {
		fmt.Println("exceeds 1")
	}
	// Output:
	// within cutoff: 2
	// exceeds 1
}

// The similarity self-join: all pairs of the collection with distance
// below the threshold. It runs on the batch engine — every tree is
// prepared once and compared on reusable arenas.
func ExampleJoin() {
	trees := []*ted.Tree{
		ted.MustParse("{a{b}{c}}"),
		ted.MustParse("{a{b}}"),
		ted.MustParse("{x{y}{z}}"),
	}
	r := ted.Join(trees, 2)
	for _, p := range r.Pairs {
		fmt.Printf("trees %d and %d: distance %g\n", p.I, p.J, p.Dist)
	}
	// Output: trees 0 and 1: distance 1
}

// Top-k approximate subtree matching: the k subtrees of a data tree
// closest to a query, from one distance computation.
func ExampleTopKSubtrees() {
	query := ted.MustParse("{b{d}}")
	data := ted.MustParse("{a{b{c}}{b{d}}}")
	for _, m := range ted.TopKSubtrees(query, data, 2) {
		fmt.Printf("subtree %s: distance %g\n", data.SubtreeString(m.Root), m.Dist)
	}
	// Output:
	// subtree {b{d}}: distance 0
	// subtree {b{c}}: distance 1
}

// The optimal edit script between two trees.
func ExampleMapping() {
	f := ted.MustParse("{a{b}{c}}")
	g := ted.MustParse("{a{b{d}}}")
	for _, op := range ted.Mapping(f, g) {
		switch op.Kind {
		case ted.OpDelete:
			fmt.Printf("delete %s\n", op.FLabel)
		case ted.OpInsert:
			fmt.Printf("insert %s\n", op.GLabel)
		case ted.OpMatch:
			if op.FLabel != op.GLabel {
				fmt.Printf("rename %s to %s\n", op.FLabel, op.GLabel)
			}
		}
	}
	// Output:
	// delete c
	// insert d
}

// The pq-gram distance: a fast structural pseudo-metric in [0, 1].
// Identical trees score 0; trees sharing no local structure score 1. It
// is not a lower bound of the tree edit distance — use it to rank
// candidates, not to prune exactly.
func ExamplePQGramDistance() {
	f := ted.MustParse("{a{b}{c}}")
	g := ted.MustParse("{a{b}{d}}")
	h := ted.MustParse("{x{y}{z}}")
	fmt.Printf("d(f,f) = %.2f\n", ted.PQGramDistance(f, f, 2, 3))
	fmt.Printf("d(f,g) = %.2f\n", ted.PQGramDistance(f, g, 2, 3)) // c→d perturbs 2/3 of the grams
	fmt.Printf("d(f,h) = %.2f\n", ted.PQGramDistance(f, h, 2, 3))
	// Output:
	// d(f,f) = 0.00
	// d(f,g) = 0.67
	// d(f,h) = 1.00
}
