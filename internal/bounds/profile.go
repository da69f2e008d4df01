package bounds

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/tree"
)

// noLabel fills a binary-branch position that has no node — a leaf's
// first child, a last child's next sibling. A node with the empty label
// reads as noLabel too: the string-keyed BinaryBranch spells a missing
// position as "", so the two collapse there and must collapse here.
const noLabel int32 = -1

// labelCount is one entry of a profile's label histogram: an interned
// label id and the number of nodes that carry it.
type labelCount struct {
	ID, Count int32
}

// branchCount is one entry of a profile's binary-branch histogram: the
// label ids of a node, of its first child and of its next sibling in the
// first-child/next-sibling binary transform (noLabel where there is no
// such node), with the number of nodes that share the triple.
type branchCount struct {
	Label, FirstChild, NextSibling, Count int32
}

// Profile caches the per-tree inputs of every lower bound in this
// package: the label multiset, the binary-branch histogram, and the
// preorder/postorder label serializations. Computing a Profile once per
// tree turns the per-pair bound evaluation from "rebuild two histograms,
// then compare" into a pure comparison — the saving that makes
// bound-based pre-filtering worthwhile in batch joins, where every tree
// participates in many pairs.
//
// Everything is keyed by label ids on one interning label table
// (tree.LabelTable): sorted (id, count) label pairs, sorted branch
// entries and int32 serializations, so each bound is a merge of sorted
// ints or an int DP. Interning maps labels to ids one to one, which
// makes every profiled bound bit-identical to its string-based
// counterpart — provided both profiles took their ids from the same
// table. The batch engine guarantees that: it profiles only trees on its
// own table, which a corpus shares with every engine it creates.
type Profile struct {
	t        *tree.Tree
	labels   []labelCount  // ascending ID
	branches []branchCount // ascending (Label, FirstChild, NextSibling)
	pre      []int32       // label ids in preorder
	post     []int32       // label ids in postorder: the ids NewProfile was given
}

// NewProfile precomputes the bound inputs of t in O(|t| log |t|) time
// from ids, the interned label id of every node in postorder. The
// profile keeps ids as its postorder sequence rather than copying it —
// a tree on an interning table passes its own (t.IDs()) — so the caller
// must not modify them afterwards.
func NewProfile(t *tree.Tree, ids []int32) *Profile {
	n := t.Len()
	if len(ids) != n {
		panic(fmt.Sprintf("bounds: %d label ids for a %d-node tree", len(ids), n))
	}
	p := &Profile{t: t, pre: make([]int32, n), post: ids}
	for i := range p.pre {
		p.pre[i] = ids[t.ByPre(i)]
	}
	p.labels = labelCounts(p.pre)
	p.branches = branchCounts(t, ids)
	return p
}

// labelCounts returns the (id, count) run lengths of ids, sorted by id,
// in a slice of exactly the distinct-label count.
func labelCounts(ids []int32) []labelCount {
	s := slices.Clone(ids)
	slices.Sort(s)
	distinct := 0
	for i := range s {
		if i == 0 || s[i] != s[i-1] {
			distinct++
		}
	}
	out := make([]labelCount, 0, distinct)
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		out = append(out, labelCount{ID: s[i], Count: int32(j - i)})
		i = j
	}
	return out
}

// branchCounts returns the binary-branch histogram of t, sorted, in a
// slice of exactly the distinct-branch count.
func branchCounts(t *tree.Tree, ids []int32) []branchCount {
	at := func(v int) int32 {
		if t.Label(v) == "" {
			return noLabel
		}
		return ids[v]
	}
	n := t.Len()
	all := make([]branchCount, n)
	// Postorder puts every child before its parent, so a node's entry
	// exists by the time its parent fills in the next-sibling links.
	for v := 0; v < n; v++ {
		all[v] = branchCount{Label: at(v), FirstChild: noLabel, NextSibling: noLabel, Count: 1}
		kids := t.Children(v)
		if len(kids) > 0 {
			all[v].FirstChild = at(kids[0])
		}
		for i := 0; i+1 < len(kids); i++ {
			all[kids[i]].NextSibling = at(kids[i+1])
		}
	}
	slices.SortFunc(all, compareBranch)
	w := 0
	for _, b := range all {
		if w > 0 && compareBranch(all[w-1], b) == 0 {
			all[w-1].Count += b.Count
			continue
		}
		all[w] = b
		w++
	}
	return slices.Clone(all[:w])
}

// compareBranch orders branch entries by (Label, FirstChild, NextSibling).
func compareBranch(a, b branchCount) int {
	if c := cmp.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	if c := cmp.Compare(a.FirstChild, b.FirstChild); c != 0 {
		return c
	}
	return cmp.Compare(a.NextSibling, b.NextSibling)
}

// Tree returns the profiled tree.
func (p *Profile) Tree() *tree.Tree { return p.t }

// Len returns the number of nodes the profile describes.
func (p *Profile) Len() int { return len(p.post) }

// LowerProfiled returns exactly Lower(a.Tree(), b.Tree()) — the best of
// the size, label-histogram, binary-branch and string-edit lower bounds —
// but from precomputed profiles, skipping all per-tree work.
func LowerProfiled(a, b *Profile) float64 {
	lb := Size(a.t, b.t)
	if v := labelHistogramProfiled(a, b); v > lb {
		lb = v
	}
	if v := binaryBranchProfiled(a, b); v > lb {
		lb = v
	}
	if v := stringEditProfiled(a, b); v > lb {
		lb = v
	}
	return lb
}

// LabelHistogramProfiled returns LabelHistogram(a.Tree(), b.Tree()) from
// the profiles: max(|F|, |G|) minus the label multisets' intersection,
// never below the size bound. It is one merge of the two sorted label
// histograms and allocates nothing, so it is the lower bound to try
// before anything that visits node pairs.
func LabelHistogramProfiled(a, b *Profile) float64 { return labelHistogramProfiled(a, b) }

// SubtreeLowerProfiled returns a lower bound on the unit-cost distance
// from the query q to every subtree of d at once:
// |Q| − |labels(Q) ∩ labels(d)| (multiset intersection). A subtree's
// labels are a sub-multiset of d's, so at most that many query nodes
// can map to a subtree node without a rename; every other query node
// costs at least one edit. The bound is never below |Q| − |d|, the
// size bound of the largest subtree. It allocates nothing.
func SubtreeLowerProfiled(q, d *Profile) float64 {
	return float64(q.Len() - commonLabels(q, d))
}

func labelHistogramProfiled(a, b *Profile) float64 {
	return float64(max(a.Len(), b.Len()) - commonLabels(a, b))
}

// commonLabels returns the size of the label multiset intersection, by
// merging the two id-sorted histograms.
func commonLabels(a, b *Profile) int {
	x, y := a.labels, b.labels
	common := 0
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i].ID < y[j].ID:
			i++
		case x[i].ID > y[j].ID:
			j++
		default:
			common += int(min(x[i].Count, y[j].Count))
			i++
			j++
		}
	}
	return common
}

// binaryBranchProfiled returns BinaryBranch(a.Tree(), b.Tree()): the L1
// distance of the sorted branch histograms, merged, divided by 5.
func binaryBranchProfiled(a, b *Profile) float64 {
	x, y := a.branches, b.branches
	l1 := 0
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch c := compareBranch(x[i], y[j]); {
		case c < 0:
			l1 += int(x[i].Count)
			i++
		case c > 0:
			l1 += int(y[j].Count)
			j++
		default:
			if d := int(x[i].Count - y[j].Count); d > 0 {
				l1 += d
			} else {
				l1 -= d
			}
			i++
			j++
		}
	}
	for ; i < len(x); i++ {
		l1 += int(x[i].Count)
	}
	for ; j < len(y); j++ {
		l1 += int(y[j].Count)
	}
	return float64(l1) / 5
}

// stringEditProfiled returns StringEdit(a.Tree(), b.Tree()) from the
// id serializations.
func stringEditProfiled(a, b *Profile) float64 {
	return float64(max(editDistance(a.pre, b.pre), editDistance(a.post, b.post)))
}
