package bounds

import (
	"cmp"
	"slices"

	"repro/internal/tree"
)

// noLabel fills a binary-branch neighbour position that has no node — a
// leaf's first child, a last child's next sibling. A neighbour with the
// empty label reads as noLabel too: the string-keyed BinaryBranch spells
// a missing position as "", so the two collapse there and must collapse
// here. A node's own label never collapses, since it always exists.
const noLabel int32 = -1

// keyBits is the width of each of the three fields of a packed branch
// key (see packedBranches). A tree whose label ids all lie below
// 1<<keyBits − 1 packs. A corpus snapshot may hold 2²⁴ labels, so a tree
// holding a larger id sorts its branch entries by compareBranch instead.
const keyBits = 21

// labelCount is one entry of a profile's label histogram: an interned
// label id and the number of nodes that carry it.
type labelCount struct {
	ID, Count int32
}

// branchCount is one entry of a profile's binary-branch histogram: the
// label id of a node, and those of its first child and of its next
// sibling in the first-child/next-sibling binary transform (noLabel
// where there is no such node or it has the empty label), with the
// number of nodes that share the triple.
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
// Everything is keyed by the label ids of the tree's interning label
// table (tree.LabelTable): sorted (id, count) label pairs, sorted branch
// entries and int32 serializations, so each bound is a merge of sorted
// ints or an int DP. Both histograms come from one sort: the label
// histogram is the branch histogram's node labels, run-length summed.
// Interning maps labels to ids one to one, which makes every profiled
// bound bit-identical to its string-based counterpart — provided both
// trees are on the same table. The batch engine guarantees that: it
// profiles only trees on its own table, which a corpus shares with every
// engine it creates.
type Profile struct {
	t        *tree.Tree
	labels   []labelCount  // ascending ID
	branches []branchCount // ascending (Label, FirstChild, NextSibling)
	pre      []int32       // label ids in preorder
	post     []int32       // label ids in postorder: the tree's own
}

// NewProfile precomputes the bound inputs of t, whose label ids must
// come from an interning table (one id per distinct label), in
// O(|t| log |t|) time: one sort of the nodes' binary branches, packed
// into uint64 keys, yields the branch histogram, and the label histogram
// is read off that. The profile keeps t.IDs() as its postorder sequence
// rather than copying it.
func NewProfile(t *tree.Tree) *Profile { return newProfile(t, keyBits) }

// newProfile is NewProfile with bits-wide key fields; a tree holding an
// id ≥ 1<<bits − 1 takes the comparison sort.
func newProfile(t *tree.Tree, bits uint) *Profile {
	ids := t.IDs()
	p := &Profile{t: t, pre: make([]int32, len(ids)), post: ids}
	top := int32(0)
	for i := range p.pre {
		p.pre[i] = ids[t.ByPre(i)]
		top = max(top, p.pre[i])
	}
	empty, ok := t.LabelTable().ID("")
	if !ok {
		empty = noLabel
	}
	if int64(top) < 1<<bits-1 {
		p.branches = packedBranches(t, empty, bits)
	} else {
		p.branches = sortedBranches(t, empty)
	}
	p.labels = labelHistogram(p.branches)
	return p
}

// packedBranches returns the binary-branch histogram of t, sorted, in a
// slice of exactly the distinct-branch count. Each node's branch packs
// into one key of three bits-wide fields: its own label id, then its
// first child's and its next sibling's ids plus one (0 for noLabel), so
// key order is compareBranch order and the histogram is the runs of
// equal keys after one slices.Sort.
func packedBranches(t *tree.Tree, empty int32, bits uint) []branchCount {
	ids := t.IDs()
	field := func(v int) uint64 {
		if ids[v] == empty {
			return 0
		}
		return uint64(ids[v]) + 1
	}
	keys := make([]uint64, len(ids))
	// Postorder puts every child before its parent, so a node's key
	// exists by the time its parent fills in the next-sibling fields.
	for v, id := range ids {
		keys[v] = uint64(id) << (2 * bits)
		kids := t.Children(v)
		if len(kids) > 0 {
			keys[v] |= field(kids[0]) << bits
		}
		for i := 1; i < len(kids); i++ {
			keys[kids[i-1]] |= field(kids[i])
		}
	}
	slices.Sort(keys)
	distinct := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			distinct++
		}
	}
	out := make([]branchCount, 0, distinct)
	mask := uint64(1)<<bits - 1
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			out[len(out)-1].Count++
			continue
		}
		out = append(out, branchCount{
			Label:       int32(k >> (2 * bits)),
			FirstChild:  int32(k>>bits&mask) - 1,
			NextSibling: int32(k&mask) - 1,
			Count:       1,
		})
	}
	return out
}

// sortedBranches returns what packedBranches does, for a tree whose ids
// do not pack, by sorting its branch entries with compareBranch.
func sortedBranches(t *tree.Tree, empty int32) []branchCount {
	ids := t.IDs()
	at := func(v int) int32 {
		if ids[v] == empty {
			return noLabel
		}
		return ids[v]
	}
	all := make([]branchCount, len(ids))
	for v, id := range ids {
		all[v] = branchCount{Label: id, FirstChild: noLabel, NextSibling: noLabel, Count: 1}
		kids := t.Children(v)
		if len(kids) > 0 {
			all[v].FirstChild = at(kids[0])
		}
		for i := 1; i < len(kids); i++ {
			all[kids[i-1]].NextSibling = at(kids[i])
		}
	}
	slices.SortFunc(all, compareBranch)
	w := 0
	for _, b := range all {
		if w > 0 && compareBranch(all[w-1], b) == 0 {
			all[w-1].Count++
			continue
		}
		all[w] = b
		w++
	}
	return slices.Clone(all[:w])
}

// labelHistogram returns the label histogram that a sorted branch
// histogram implies, in a slice of exactly the distinct-label count:
// each run of one Label, with its counts summed.
func labelHistogram(branches []branchCount) []labelCount {
	distinct := 0
	for i, b := range branches {
		if i == 0 || b.Label != branches[i-1].Label {
			distinct++
		}
	}
	out := make([]labelCount, 0, distinct)
	for i, b := range branches {
		if i == 0 || b.Label != branches[i-1].Label {
			out = append(out, labelCount{ID: b.Label})
		}
		out[len(out)-1].Count += b.Count
	}
	return out
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
