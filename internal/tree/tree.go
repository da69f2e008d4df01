// Package tree implements the ordered labeled tree substrate used by all
// tree edit distance algorithms in this repository.
//
// A Tree is an immutable, array-indexed form of an ordered labeled tree.
// Nodes are identified by their 0-based postorder position, which is the
// canonical node id used throughout the module (distance matrices, strategy
// arrays and single-path functions all index by postorder id). The package
// also answers in constant time every per-node query the RTED machinery
// makes: preorder ids, mirror (right-to-left) postorder ids and their
// inverses, subtree sizes, leftmost/rightmost leaf descendants, heavy
// children and child lists. Quantities the machinery derives once per
// pair, such as the decomposition cardinalities of the strategy
// computation, are not stored.
package tree

import (
	"fmt"
	"strings"
)

// Node is the mutable builder form of a tree node. Build trees by linking
// Nodes, then call Index to obtain the immutable array form used by the
// algorithms.
type Node struct {
	Label    string
	Children []*Node
}

// NewNode returns a node with the given label and children.
func NewNode(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// Add appends children to n and returns n for chaining.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Tree is the immutable indexed form of an ordered labeled tree.
//
// All per-node arrays are indexed by postorder id in [0, N); the root is
// id N-1. They hold int32 values and share one allocation, and the child
// lists of all nodes share one slice in compressed-row form: the
// children of i are kids[first[i]:first[i+1]], left to right. A node's
// label is an id into the tree's label table (see LabelTable).
type Tree struct {
	table  *LabelTable
	ids    []int32 // label id of node i in table
	parent []int32 // parent postorder id, -1 for the root
	size   []int32 // number of nodes in the subtree rooted at i
	pre    []int32 // preorder number of node i
	byPre  []int32 // inverse of pre: preorder number -> postorder id
	heavy  []int32 // heavy child postorder id, -1 for leaves
	first  []int32 // N+1 offsets into kids
	kids   []int   // every child list, concatenated in parent postorder
	height int     // maximum depth of any node (root depth 0)
}

// Index converts a builder tree into its immutable indexed form. It
// lists the builder's labels and child counts in postorder and builds
// the tree from them as FromPostorder does, on a label table of its own.
// It panics if root or any child is nil; trees always have at least one
// node.
func Index(root *Node) *Tree {
	if root == nil {
		panic("tree: Index called with nil root")
	}
	n := countNodes(root)
	labels := make([]string, 0, n)
	counts := make([]int, 0, n)
	// Iterative DFS: the explicit stack avoids goroutine stack growth
	// limits on degenerate deep trees.
	type frame struct {
		node *Node
		next int // next child to visit
	}
	stack := []frame{{node: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.Children) {
			c := f.node.Children[f.next]
			f.next++
			stack = append(stack, frame{node: c})
			continue
		}
		labels = append(labels, f.node.Label)
		counts = append(counts, len(f.node.Children))
		stack = stack[:len(stack)-1]
	}
	t, err := build(tableOf(labels), identity(n), counts)
	if err != nil {
		panic(err)
	}
	return t
}

func countNodes(root *Node) int {
	n := 0
	stack := []*Node{root}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n++
		for _, c := range nd.Children {
			if c == nil {
				panic("tree: nil child node")
			}
			stack = append(stack, c)
		}
	}
	return n
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.ids) }

// Root returns the postorder id of the root (always Len()-1).
func (t *Tree) Root() int { return t.Len() - 1 }

// Label returns the label of node i.
func (t *Tree) Label(i int) string { return t.table.Label(t.ids[i]) }

// Parent returns the postorder id of i's parent, or -1 for the root.
func (t *Tree) Parent(i int) int { return int(t.parent[i]) }

// Children returns the postorder ids of i's children, left to right.
// The returned slice must not be modified.
func (t *Tree) Children(i int) []int {
	lo, hi := t.first[i], t.first[i+1]
	return t.kids[lo:hi:hi]
}

// NumChildren returns the fanout of node i.
func (t *Tree) NumChildren(i int) int { return int(t.first[i+1] - t.first[i]) }

// Size returns the number of nodes in the subtree rooted at i.
func (t *Tree) Size(i int) int { return int(t.size[i]) }

// Height returns the maximum depth of any node (the root has depth 0).
func (t *Tree) Height() int { return t.height }

// LeftmostLeaf returns the postorder id of the leftmost leaf descendant
// of i (i itself if i is a leaf): the first node of i's subtree in
// postorder.
func (t *Tree) LeftmostLeaf(i int) int { return t.SubtreeFirst(i) }

// RightmostLeaf returns the postorder id of the rightmost leaf descendant
// of i (i itself if i is a leaf): the last node of i's subtree in
// preorder.
func (t *Tree) RightmostLeaf(i int) int {
	return int(t.byPre[t.pre[i]+t.size[i]-1])
}

// Pre returns the preorder number of node i.
func (t *Tree) Pre(i int) int { return int(t.pre[i]) }

// ByPre returns the postorder id of the node with preorder number p.
func (t *Tree) ByPre(p int) int { return int(t.byPre[p]) }

// MPost returns the mirror (right-to-left) postorder number of node i.
// Mirror postorder is preorder reversed, so it is not stored.
func (t *Tree) MPost(i int) int { return len(t.pre) - 1 - int(t.pre[i]) }

// ByMPost returns the postorder id of the node with mirror postorder
// number m.
func (t *Tree) ByMPost(m int) int { return int(t.byPre[len(t.byPre)-1-m]) }

// HeavyChild returns the postorder id of i's heavy child (the child with
// the largest subtree, ties broken by the rightmost child), or -1 if i is
// a leaf.
func (t *Tree) HeavyChild(i int) int { return int(t.heavy[i]) }

// LeftChild returns the leftmost child of i, or -1 if i is a leaf.
func (t *Tree) LeftChild(i int) int {
	if t.IsLeaf(i) {
		return -1
	}
	return t.kids[t.first[i]]
}

// RightChild returns the rightmost child of i, or -1 if i is a leaf.
func (t *Tree) RightChild(i int) int {
	if t.IsLeaf(i) {
		return -1
	}
	return t.kids[t.first[i+1]-1]
}

// IsLeaf reports whether node i has no children.
func (t *Tree) IsLeaf(i int) bool { return t.first[i] == t.first[i+1] }

// SubtreeFirst returns the smallest postorder id inside the subtree of i.
// The subtree of i occupies the contiguous postorder range
// [SubtreeFirst(i), i].
func (t *Tree) SubtreeFirst(i int) int { return i - int(t.size[i]) + 1 }

// InSubtree reports whether the node with postorder id x lies in the
// subtree rooted at v.
func (t *Tree) InSubtree(x, v int) bool {
	return x >= t.SubtreeFirst(v) && x <= v
}

// Leaves returns the number of leaves in the whole tree.
func (t *Tree) Leaves() int {
	c := 0
	for i := 0; i < t.Len(); i++ {
		if t.IsLeaf(i) {
			c++
		}
	}
	return c
}

// Builder returns a mutable deep copy of the subtree rooted at node i.
func (t *Tree) Builder(i int) *Node {
	nd := &Node{Label: t.Label(i)}
	for _, c := range t.Children(i) {
		nd.Children = append(nd.Children, t.Builder(c))
	}
	return nd
}

// Mirror returns a new tree with every node's child order reversed.
func (t *Tree) Mirror() *Tree {
	var mirror func(i int) *Node
	mirror = func(i int) *Node {
		nd := &Node{Label: t.Label(i)}
		kids := t.Children(i)
		for j := len(kids) - 1; j >= 0; j-- {
			nd.Children = append(nd.Children, mirror(kids[j]))
		}
		return nd
	}
	return Index(mirror(t.Root()))
}

// Equal reports whether two trees are identical (same shape and labels).
func Equal(a, b *Tree) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Label(i) != b.Label(i) || a.parent[i] != b.parent[i] {
			return false
		}
		if a.NumChildren(i) != b.NumChildren(i) {
			return false
		}
	}
	return true
}

// String renders the tree in bracket notation.
func (t *Tree) String() string {
	return t.SubtreeString(t.Root())
}

// SubtreeString renders the subtree rooted at node i in bracket
// notation.
func (t *Tree) SubtreeString(i int) string {
	var sb strings.Builder
	t.writeBracket(&sb, i)
	return sb.String()
}

func (t *Tree) writeBracket(sb *strings.Builder, i int) {
	sb.WriteByte('{')
	sb.WriteString(EscapeLabel(t.Label(i)))
	for _, c := range t.Children(i) {
		t.writeBracket(sb, c)
	}
	sb.WriteByte('}')
}

// Stats summarizes shape statistics of a tree; used by the dataset
// simulators and the experiment reports.
type Stats struct {
	Size      int
	Height    int
	Leaves    int
	MaxFanout int
	AvgDepth  float64
}

// Shape returns shape statistics for t.
func (t *Tree) Shape() Stats {
	n := t.Len()
	s := Stats{Size: n, Height: t.height}
	// In reverse postorder every parent precedes its children, so one
	// sweep assigns every depth.
	depth := make([]int, n)
	var depthSum int64
	for i := n - 1; i >= 0; i-- {
		if p := t.parent[i]; p >= 0 {
			depth[i] = depth[p] + 1
		}
		depthSum += int64(depth[i])
		if t.IsLeaf(i) {
			s.Leaves++
		}
		s.MaxFanout = max(s.MaxFanout, t.NumChildren(i))
	}
	s.AvgDepth = float64(depthSum) / float64(n)
	return s
}

// Validate checks internal consistency of the indexed form. It is used by
// tests and by the parsers after construction; it returns an error rather
// than panicking so callers can surface corrupt inputs.
func (t *Tree) Validate() error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("tree: empty tree")
	}
	if t.parent[n-1] != -1 {
		return fmt.Errorf("tree: root parent = %d, want -1", t.parent[n-1])
	}
	for i := 0; i < n; i++ {
		for _, c := range t.Children(i) {
			if c < 0 || c >= n || t.Parent(c) != i {
				return fmt.Errorf("tree: node %d has inconsistent child %d", i, c)
			}
			if c >= i {
				return fmt.Errorf("tree: child %d not before parent %d in postorder", c, i)
			}
		}
		sz := 1
		for _, c := range t.Children(i) {
			sz += t.Size(c)
		}
		if sz != t.Size(i) {
			return fmt.Errorf("tree: node %d size %d, want %d", i, t.size[i], sz)
		}
		if t.SubtreeFirst(i) < 0 {
			return fmt.Errorf("tree: node %d subtree start negative", i)
		}
		if t.ByPre(t.Pre(i)) != i {
			return fmt.Errorf("tree: preorder map inconsistent at %d", i)
		}
	}
	return nil
}
