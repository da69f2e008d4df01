package index_test

import (
	"fmt"

	ted "repro"
	"repro/index"
	"repro/internal/tree"
)

// Probe-below candidate generation: index the corpus once, then ask each
// tree for the earlier trees it could possibly match. Unordered pairs
// come out exactly once.
func ExampleHistogram() {
	ix := index.NewHistogram(tree.NewLabelTable())
	for _, s := range []string{"{a{b}{c}}", "{a{b}}", "{x{y}{z}}", "{a{b}{c}{d}}"} {
		ix.Add(ted.MustParse(s))
	}
	for q := 1; q < ix.Len(); q++ {
		for _, c := range ix.CandidatesBelow(q, 2, nil) {
			fmt.Printf("candidate pair (%d, %d), lower bound %g\n", c.ID, q, c.LB)
		}
	}
	// Output:
	// candidate pair (0, 1), lower bound 1
	// candidate pair (0, 3), lower bound 1
}
