package tree

import (
	"fmt"
	"math"
)

// PostorderForm is the minimal serializable description of a tree: the
// label and child count of every node, both in postorder. It is the form
// a write-ahead log record carries — two flat arrays instead of a
// pointer structure — and FromPostorder rebuilds the full indexed Tree
// from it. The corpus snapshot stores label ids in place of the labels
// (FromIDs).
type PostorderForm struct {
	Labels      []string
	ChildCounts []int
}

// Postorder returns the postorder form of t.
func (t *Tree) Postorder() PostorderForm {
	f := PostorderForm{Labels: make([]string, t.Len()), ChildCounts: make([]int, t.Len())}
	for i := range f.Labels {
		f.Labels[i] = t.Label(i)
		f.ChildCounts[i] = t.NumChildren(i)
	}
	return f
}

// FromPostorder rebuilds the indexed Tree from its postorder form without
// going through the mutable builder representation: one stack pass wires
// parents, children and all bottom-up quantities, and one reverse pass
// fills the preorder numbers. It returns an error — never panics — on
// malformed input (mismatched lengths, more nodes than an int32 id can
// name, child counts that do not stack up to a single root), so decoders
// can feed it untrusted data directly. The tree is on a label table of
// its own, a copy of f.Labels.
func FromPostorder(f PostorderForm) (*Tree, error) {
	if err := checkNodeCount(len(f.Labels)); err != nil {
		return nil, err
	}
	if len(f.ChildCounts) != len(f.Labels) {
		return nil, fmt.Errorf("tree: %d labels but %d child counts", len(f.Labels), len(f.ChildCounts))
	}
	return build(tableOf(append([]string(nil), f.Labels...)), identity(len(f.Labels)), f.ChildCounts)
}

// checkNodeCount rejects node counts a tree cannot hold: none, or more
// than the int32 ids of its arrays can number.
func checkNodeCount(n int) error {
	if n == 0 {
		return fmt.Errorf("tree: empty postorder form")
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("tree: %d nodes, at most %d fit int32 ids", n, math.MaxInt32)
	}
	return nil
}

// identity returns the label ids of a tree on a table of its own
// postorder labels: node v has id v. They are an allocation apart from
// the shape arrays, which a tree relabeled onto a shared table keeps and
// the ids it drops.
func identity(n int) []int32 {
	ids := make([]int32, n)
	for v := range ids {
		ids[v] = int32(v)
	}
	return ids
}

// build indexes a tree on table tab from its postorder label ids and
// child counts, keeping ids as the tree's own. Node counts must already
// be checked.
func build(tab *LabelTable, ids []int32, counts []int) (*Tree, error) {
	n := len(counts)
	// Six per-node arrays in one allocation; first has n+1 entries.
	arr := make([]int32, 6*n+1)
	next := func(k int) []int32 {
		a := arr[:k:k]
		arr = arr[k:]
		return a
	}
	t := &Tree{table: tab, ids: ids}
	t.parent, t.size, t.heavy = next(n), next(n), next(n)
	t.pre, t.byPre = next(n), next(n)
	t.first = next(n + 1)
	t.kids = make([]int, 0, n-1)

	// Bottom-up pass: each node adopts the last k completed subtrees on
	// the stack as its children (stack order is sibling order). Each
	// stack entry carries its subtree's height.
	type sub struct{ id, height int32 }
	stack := make([]sub, 0, 16)
	for i := 0; i < n; i++ {
		k := counts[i]
		if k < 0 || k > len(stack) {
			return nil, fmt.Errorf("tree: node %d claims %d children, %d subtrees available", i, k, len(stack))
		}
		kids := stack[len(stack)-k:]
		t.first[i] = int32(len(t.kids))
		sz, h := int32(1), int32(0)
		for _, c := range kids {
			t.kids = append(t.kids, int(c.id))
			t.parent[c.id] = int32(i)
			sz += t.size[c.id]
			h = max(h, c.height+1)
		}
		t.size[i] = sz
		if k == 0 {
			t.heavy[i] = -1
		} else {
			// Heavy child: maximal subtree size, ties to the rightmost
			// child (required to reproduce the paper's worked Example 4).
			hc := kids[0].id
			for _, c := range kids[1:] {
				if t.size[c.id] >= t.size[hc] {
					hc = c.id
				}
			}
			t.heavy[i] = hc
		}
		stack = append(stack[:len(stack)-k], sub{int32(i), h})
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("tree: child counts describe a forest of %d trees, want 1", len(stack))
	}
	t.first[n] = int32(len(t.kids))
	t.parent[n-1] = -1
	t.height = int(stack[0].height)

	// Top-down pass: in reverse postorder every parent precedes its
	// children. A subtree occupies a contiguous range in preorder, which
	// starts at its root; the children split the rest of their parent's
	// range left to right. Mirror (right-to-left) postorder is preorder
	// reversed, so the accessors derive it.
	t.pre[n-1] = 0
	for v := n - 1; v >= 0; v-- {
		t.byPre[t.pre[v]] = int32(v)
		p := t.pre[v] + 1
		for _, c := range t.Children(v) {
			t.pre[c] = p
			p += t.size[c]
		}
	}
	return t, nil
}
