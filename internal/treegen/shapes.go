// Package treegen generates the synthetic tree shapes of the paper's
// evaluation (Figure 7), bounded random trees, and simulators for the
// three real-world datasets (SwissProt, TreeBank, TreeFam) whose shape
// statistics the paper reports. The substitution is sound because the
// experiments depend on tree shapes, not on the proprietary content, so
// seeded generators with matching shape statistics preserve the measured
// behaviour.
package treegen

import "repro/internal/tree"

// shapeLabel is the label of every node in the synthetic shape trees.
// The shape experiments (Figure 8, 9, Table 1) measure decomposition
// behaviour, which is label independent.
const shapeLabel = "x"

// LeftBranch builds the left branch tree LB of Figure 7(a): a spine
// descending through leftmost children where every spine node has one
// extra leaf as its right child. The Zhang-L strategy is optimal for it;
// for any subtree rooted at a non-leaf v, |F_v − γL| = (|F_v|−1)/2 and
// |F_v − γR| = 1 (used in the Theorem 2 tightness proof).
func LeftBranch(n int) *tree.Tree {
	return tree.Index(branch(n, false))
}

// RightBranch builds the mirror image RB of Figure 7(b), for which
// Zhang-R is optimal.
func RightBranch(n int) *tree.Tree {
	return tree.Index(branch(n, true))
}

func branch(n int, right bool) *tree.Node {
	if n < 1 {
		panic("treegen: tree size must be positive")
	}
	cur := leaf()
	n--
	for n >= 2 {
		if right {
			cur = tree.NewNode(shapeLabel, leaf(), cur)
		} else {
			cur = tree.NewNode(shapeLabel, cur, leaf())
		}
		n -= 2
	}
	if n == 1 {
		cur = tree.NewNode(shapeLabel, cur)
	}
	return cur
}

// FullBinary builds a balanced binary tree FB with n nodes (Figure 7(c)).
// For n = 2^k − 1 it is the complete binary tree; other sizes balance the
// remainder across the two subtrees.
func FullBinary(n int) *tree.Tree {
	return tree.Index(fullBinary(n))
}

func fullBinary(n int) *tree.Node {
	if n < 1 {
		panic("treegen: tree size must be positive")
	}
	if n == 1 {
		return leaf()
	}
	if n == 2 {
		return tree.NewNode(shapeLabel, leaf())
	}
	left := (n - 1) / 2
	return tree.NewNode(shapeLabel, fullBinary(left), fullBinary(n-1-left))
}

// ZigZag builds the zig-zag tree ZZ of Figure 7(d): a spine that
// alternates between continuing in the left and the right child, with a
// leaf on the other side. Heavy-path strategies (Demaine-H) are optimal
// for it while both Zhang variants degenerate.
func ZigZag(n int) *tree.Tree {
	if n < 1 {
		panic("treegen: tree size must be positive")
	}
	cur := leaf()
	n--
	zig := true
	for n >= 2 {
		if zig {
			cur = tree.NewNode(shapeLabel, cur, leaf())
		} else {
			cur = tree.NewNode(shapeLabel, leaf(), cur)
		}
		zig = !zig
		n -= 2
	}
	if n == 1 {
		cur = tree.NewNode(shapeLabel, cur)
	}
	return tree.Index(cur)
}

// Mixed builds the mixed tree MX of Figure 7(e): a deterministic
// composition of differently shaped regions, so that no single fixed
// strategy is good everywhere in the tree. The paper does not give a
// construction for MX; this one nests left-branch, right-branch, full
// binary and zig-zag blocks and empirically reproduces the paper's
// qualitative Figure 8(f)/9(c) behaviour (RTED is the sole winner).
func Mixed(n int) *tree.Tree {
	return tree.Index(mixed(n))
}

func mixed(n int) *tree.Node {
	if n < 1 {
		panic("treegen: tree size must be positive")
	}
	if n < 12 {
		return fullBinary(n)
	}
	// One root, four shaped blocks, and a recursive mixed block that
	// keeps the composition heterogeneous at every scale.
	b := (n - 1) / 5
	rest := n - 1 - 4*b
	return tree.NewNode(shapeLabel,
		branch(b, false),
		zigzag(b),
		mixed(rest),
		fullBinary(b),
		branch(b, true),
	)
}

func zigzag(n int) *tree.Node {
	t := ZigZag(n)
	return t.Builder(t.Root())
}

func leaf() *tree.Node { return tree.NewNode(shapeLabel) }

// Shape identifies one of the synthetic shapes; the experiment harness
// and the join workload iterate over it.
type Shape int

const (
	ShapeLB Shape = iota
	ShapeRB
	ShapeFB
	ShapeZZ
	ShapeMX
)

func (s Shape) String() string {
	switch s {
	case ShapeLB:
		return "LB"
	case ShapeRB:
		return "RB"
	case ShapeFB:
		return "FB"
	case ShapeZZ:
		return "ZZ"
	case ShapeMX:
		return "MX"
	}
	return "?"
}

// Build constructs the shape with n nodes.
func (s Shape) Build(n int) *tree.Tree {
	switch s {
	case ShapeLB:
		return LeftBranch(n)
	case ShapeRB:
		return RightBranch(n)
	case ShapeFB:
		return FullBinary(n)
	case ShapeZZ:
		return ZigZag(n)
	case ShapeMX:
		return Mixed(n)
	}
	panic("treegen: unknown shape")
}

// Shapes lists the five fixed synthetic shapes of Figure 7.
var Shapes = []Shape{ShapeLB, ShapeRB, ShapeFB, ShapeZZ, ShapeMX}
