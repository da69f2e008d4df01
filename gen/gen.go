// Package gen exposes the tree generators used by the paper's
// experiments: the five synthetic shapes of Figure 7, bounded random
// trees, and shape-faithful simulators of the SwissProt, TreeBank and
// TreeFam datasets (the originals are not redistributable, and the
// experiments depend on tree shape, not content). All generators are
// deterministic in their seed.
package gen

import (
	"fmt"
	"math/rand"

	ted "repro"
	"repro/internal/treegen"
)

// LeftBranch builds the left branch tree LB(n) of Figure 7(a).
func LeftBranch(n int) *ted.Tree { return treegen.LeftBranch(n) }

// RightBranch builds the right branch tree RB(n) of Figure 7(b).
func RightBranch(n int) *ted.Tree { return treegen.RightBranch(n) }

// FullBinary builds the (balanced) full binary tree FB(n) of Figure 7(c).
func FullBinary(n int) *ted.Tree { return treegen.FullBinary(n) }

// ZigZag builds the zig-zag tree ZZ(n) of Figure 7(d).
func ZigZag(n int) *ted.Tree { return treegen.ZigZag(n) }

// Mixed builds the mixed-shape tree MX(n) of Figure 7(e).
func Mixed(n int) *ted.Tree { return treegen.Mixed(n) }

// RandomSpec parameterizes Random. Zero MaxDepth/MaxFanout mean
// unbounded; Labels 0 means a single shared label.
type RandomSpec struct {
	Size      int
	MaxDepth  int
	MaxFanout int
	Labels    int
}

// Random draws a random tree (the paper's random workload uses MaxDepth
// 15 and MaxFanout 6).
func Random(seed int64, spec RandomSpec) *ted.Tree {
	rng := rand.New(rand.NewSource(seed))
	return treegen.Random(rng, treegen.RandomSpec(spec))
}

// RenameSome returns a copy of t with k random node labels replaced by
// labels drawn from a small auxiliary alphabet: a near-duplicate at edit
// distance ≤ k (renames may collide or hit the same node twice, so the
// true distance can be smaller). Deterministic in the seed. Useful for
// building join corpora with known clusters of true matches.
func RenameSome(t *ted.Tree, k int, seed int64) *ted.Tree {
	rng := rand.New(rand.NewSource(seed))
	b := t.Builder(t.Root())
	var nodes []*ted.Node
	var walk func(nd *ted.Node)
	walk = func(nd *ted.Node) {
		nodes = append(nodes, nd)
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(b)
	for i := 0; i < k; i++ {
		nodes[rng.Intn(len(nodes))].Label = fmt.Sprintf("r%d", rng.Intn(50))
	}
	return ted.Build(b)
}

// SwissProtLike generates a flat, wide XML-like tree with the published
// SwissProt shape statistics (depth ≤ 4).
func SwissProtLike(seed int64, size int) *ted.Tree {
	return treegen.SwissProtLike(rand.New(rand.NewSource(seed)), size)
}

// TreeBankLike generates a deep, narrow parse-tree-shaped tree with the
// published TreeBank shape statistics.
func TreeBankLike(seed int64, size int) *ted.Tree {
	return treegen.TreeBankLike(rand.New(rand.NewSource(seed)), size)
}

// TreeFamLike generates a strictly binary phylogeny-shaped tree with the
// published TreeFam shape statistics.
func TreeFamLike(seed int64, size int) *ted.Tree {
	return treegen.TreeFamLike(rand.New(rand.NewSource(seed)), size)
}
