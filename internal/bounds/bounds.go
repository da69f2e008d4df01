// Package bounds implements lower and upper bounds for the unit-cost
// tree edit distance. Section 7 of the RTED paper surveys them as the
// standard way to prune exact distance computations in similarity joins:
// a pair whose lower bound reaches the threshold cannot match, and a
// pair whose upper bound stays below it must match, so the expensive
// exact algorithm only runs on the undecided middle.
//
// Lower bounds (ordered by cost):
//
//   - Size: | |F| − |G| | — every size difference needs an insert/delete.
//   - LabelHistogram: max(|F|,|G|) − (multiset label intersection); at
//     most that many nodes can be matched without a rename.
//   - StringEdit: the unit string edit distance between the preorder
//     (and postorder) label sequences lower-bounds the tree edit
//     distance [Guha et al., SIGMOD 2002]; the maximum of the two
//     serializations is used.
//   - BinaryBranch: the binary-branch distance of Yang et al. (SIGMOD
//     2005): L1 distance between binary-branch histograms, divided by 5.
//
// Upper bound:
//
//   - Constrained: Zhang's constrained edit distance (ordered variant),
//     which restricts mappings so that disjoint subtrees map to disjoint
//     subtrees; computable in O(|F||G|) with a children-sequence DP and
//     never below the unrestricted distance.
//   - ConstrainedBelow: the same DP banded by a threshold tau, for
//     filters that only ask "is the bound below tau?". The constrained
//     distance of two subtrees is at least their size difference, so
//     only subtree pairs whose sizes differ by less than tau are
//     computed; every other cell reads +Inf. Each term of the recurrence
//     is a sum of non-negative integers, so a cell whose value is below
//     tau depends only on cells below tau and comes out exact — the
//     answer is the exact constrained distance whenever that is below
//     tau. With a reusable ConstrainedScratch it allocates nothing.
//     Constrained is ConstrainedBelow at tau = +Inf.
//
// Subtree lower bounds (top-k: the distance from a query Q to every
// subtree of a data tree at once):
//
//   - SubtreeLowerProfiled: |Q| − (multiset label intersection); a
//     subtree's labels are a sub-multiset of its tree's.
//   - EulerScratch.SubtreeEulerLower: half the least string edit distance
//     between Q's Euler string (an open token per node on entry, a close
//     token on exit) and any substring of the data tree's. One node edit
//     changes an Euler string by at most two token edits [Akutsu,
//     Fukagawa and Takasu, "Approximating tree edit distance through
//     string edit distance"], and a subtree's Euler string is a
//     substring of its tree's. Sellers' approximate-substring DP computes
//     it in O(|Q|·|d|) and stops once it provably exceeds a threshold.
//
// All bounds assume the unit cost model (the model of the paper's
// experiments and of every published filter).
//
// # Profiles
//
// Batch callers compare each tree many times, so they cache its bound
// inputs in a Profile, keyed by the label ids of one tree.LabelTable:
//
//   - label histogram: (id, count) pairs sorted by id, 8 bytes each;
//   - binary-branch histogram: (label, first child, next sibling, count)
//     entries sorted by the id triple, 16 bytes each, −1 where a
//     position has no node;
//   - preorder and postorder label-id sequences, 4 bytes a node; the
//     postorder one is the tree's own id slice, not a copy.
//
// The profiled bounds are merges of the sorted entries and an int DP over
// the sequences, each bit-identical to its string-keyed counterpart here
// (LabelHistogram, BinaryBranch, StringEdit, Lower) because interning
// maps labels to ids one to one. The layout is what a stored tree keeps
// resident: on the 20–60-node trees of the benchmark's point workload
// (5,000 trees, 40 nodes on average) a profile holds about 1.0 KB beyond
// the stored ids — 5.2 MB in all — where the string-keyed maps and
// []string serializations it replaced held 6.1 KB (30.5 MB) restored from
// a snapshot and 7.4 KB freshly built.
package bounds

import (
	"repro/internal/tree"
)

// Size returns the size lower bound ||F| − |G||.
func Size(f, g *tree.Tree) float64 {
	d := f.Len() - g.Len()
	if d < 0 {
		d = -d
	}
	return float64(d)
}

// LabelHistogram returns the label multiset lower bound
// max(|F|,|G|) − Σ_label min(count_F, count_G).
func LabelHistogram(f, g *tree.Tree) float64 {
	counts := make(map[string]int, f.Len())
	for i := 0; i < f.Len(); i++ {
		counts[f.Label(i)]++
	}
	common := 0
	for i := 0; i < g.Len(); i++ {
		if counts[g.Label(i)] > 0 {
			counts[g.Label(i)]--
			common++
		}
	}
	m := f.Len()
	if g.Len() > m {
		m = g.Len()
	}
	return float64(m - common)
}

// StringEdit returns the serialization lower bound: the maximum of the
// unit string edit distances between the preorder and the postorder
// label sequences of the two trees.
func StringEdit(f, g *tree.Tree) float64 {
	post := editDistance(labelSeq(f, false), labelSeq(g, false))
	pre := editDistance(labelSeq(f, true), labelSeq(g, true))
	return float64(max(pre, post))
}

// labelSeq returns the labels of t in preorder (pre) or postorder.
func labelSeq(t *tree.Tree, pre bool) []string {
	s := make([]string, t.Len())
	for i := range s {
		if pre {
			s[i] = t.Label(t.ByPre(i))
		} else {
			s[i] = t.Label(i)
		}
	}
	return s
}

// editDistance is the classic O(nm)-time, O(min(n,m))-space unit edit
// distance between two sequences: label strings, or the interned label
// ids of a Profile. Its two rows live on the stack when the shorter
// sequence has fewer than 128 elements, so bounded calls on small trees
// allocate nothing.
func editDistance[E comparable](a, b []E) int {
	if len(b) > len(a) {
		a, b = b, a
	}
	m := len(b)
	var small [2 * 128]int
	var rows []int
	if n := 2 * (m + 1); n <= len(small) {
		rows = small[:n]
	} else {
		rows = make([]int, n)
	}
	prev, cur := rows[:m+1], rows[m+1:]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= m; j++ {
			c := prev[j-1]
			if ai != b[j-1] {
				c++
			}
			if d := prev[j] + 1; d < c {
				c = d
			}
			if d := cur[j-1] + 1; d < c {
				c = d
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// BinaryBranch returns the binary-branch lower bound of Yang et al.:
// the L1 distance between the binary-branch histograms divided by 5.
//
// The binary branch of a node in the first-child/next-sibling binary
// transform is the triple (label, first-child label, next-sibling
// label), with "" for missing positions.
func BinaryBranch(f, g *tree.Tree) float64 {
	hf := binaryBranches(f)
	l1 := 0
	for k, c := range binaryBranches(g) {
		cf := hf[k]
		if cf > c {
			hf[k] = cf - c
		} else {
			delete(hf, k)
			l1 += c - cf
		}
	}
	for _, c := range hf {
		l1 += c
	}
	return float64(l1) / 5
}

type branch struct {
	label, firstChild, nextSibling string
}

func binaryBranches(t *tree.Tree) map[branch]int {
	h := make(map[branch]int, t.Len())
	for v := 0; v < t.Len(); v++ {
		var b branch
		b.label = t.Label(v)
		if fc := t.LeftChild(v); fc != -1 {
			b.firstChild = t.Label(fc)
		}
		if p := t.Parent(v); p != -1 {
			kids := t.Children(p)
			for i, c := range kids {
				if c == v && i+1 < len(kids) {
					b.nextSibling = t.Label(kids[i+1])
					break
				}
			}
		}
		h[b]++
	}
	return h
}

// Lower returns the best (largest) of the cheap lower bounds.
func Lower(f, g *tree.Tree) float64 {
	lb := Size(f, g)
	if b := LabelHistogram(f, g); b > lb {
		lb = b
	}
	if b := BinaryBranch(f, g); b > lb {
		lb = b
	}
	if b := StringEdit(f, g); b > lb {
		lb = b
	}
	return lb
}
