package index

import "repro/internal/tree"

// Histogram is a label-histogram inverted index for threshold similarity
// joins. Each indexed tree contributes its label multiset; an inverted
// posting list maps every label to the trees containing it. A query
// merges the posting lists of its own labels, which yields — in one pass
// over the trees that share at least one label — the exact label-multiset
// intersection, and with it the O(1) tree-edit-distance lower bound
//
//	d(F, G) ≥ max(|F|, |G|) − |labels(F) ∩ labels(G)|
//
// (every node not covered by a common label must be inserted, deleted or
// renamed). Candidate generation is provably complete: a pair the index
// does not generate has lower bound ≥ τ and therefore cannot match.
// Pairs sharing no label at all are only possible matches when both trees
// are smaller than τ; a size-ordered sweep covers that fringe without
// touching the posting lists.
//
// Trees are indexed under stable ids: Add assigns the next unused id,
// Put indexes (or re-indexes) under an id of the caller's choosing — the
// id a corpus assigned, so the index survives deletes and replaces
// without renumbering. Delete and Put tombstone the old postings (a
// generation check makes them invisible to probes) and a compaction pass
// reclaims them once they dominate the lists.
//
// Keys are the label ids of the label table the index was built on,
// which every indexed tree is relabeled onto (tree.Tree.Relabel).
//
// A Histogram has no lock of its own; its owner synchronizes. Add, Put
// and Delete (and the compaction they trigger) must not overlap each
// other or any other call. CandidatesBelow and Len only read, so they
// may run concurrently with each other; each probe carries its own
// pooled accumulator. corpus.Corpus meets this with its lock: mutations
// under the write lock, probes under the read lock.
type Histogram struct {
	tab *tree.LabelTable
	iv  inverted
}

// NewHistogram returns an empty label-histogram index keyed by the label
// ids of tab. The table must give equal labels equal ids, as a table
// built by interning does (tree.NewLabelTable: a corpus's or an
// engine's); trees on it are indexed without interning a label.
func NewHistogram(tab *tree.LabelTable) *Histogram {
	return &Histogram{tab: tab}
}

// Len returns the number of live (not deleted) indexed trees.
func (ix *Histogram) Len() int { return ix.iv.live }

// Add indexes t under the next unused id (insertion order when trees are
// never deleted) and returns that id.
func (ix *Histogram) Add(t *tree.Tree) int {
	id := ix.iv.reserve()
	ix.Put(id, t)
	return id
}

// Put indexes t under the stable id of the caller's choosing, replacing
// whatever tree was indexed there: the previous postings become
// tombstones and t's postings are written under a fresh generation.
// Labels of t that the index's table has not seen are interned into it.
func (ix *Histogram) Put(id int, t *tree.Tree) {
	t = t.Relabel(ix.tab)
	ix.iv.put(id, t.Len(), t.IDs())
}

// Delete removes the tree id from the index (its postings become
// tombstones, reclaimed by the next compaction). It reports whether a
// live tree was indexed under id.
func (ix *Histogram) Delete(id int) bool { return ix.iv.delete(id) }

// CandidatesBelow appends to dst every live tree with id < q whose
// label-histogram lower bound against tree q is strictly below tau, in
// ascending id order, and returns the extended slice. The LB of each
// candidate is that bound. Restricting to smaller ids makes a self-join
// enumerate each unordered pair exactly once.
//
// Completeness: every tree with id < q at edit distance < tau from q is
// returned; everything omitted is at distance ≥ tau.
func (ix *Histogram) CandidatesBelow(q int, tau float64, dst []Candidate) []Candidate {
	dst = dst[:0]
	if tau <= 0 || q <= 0 {
		return dst
	}
	sc := getScratch()
	defer sc.release()
	nq32, ok := ix.iv.accumulate(q, sc, func(t int32, qm, tm *treeMeta) {
		if lb := float64(max(qm.size, tm.size) - sc.common[t]); lb < tau {
			dst = append(dst, Candidate{ID: int(t), LB: lb})
		}
	})
	if !ok {
		return dst
	}
	nq := int(nq32)
	// Zero-overlap pairs have lower bound max(|F|, |G|); they are
	// candidates only when both trees are smaller than tau.
	if float64(nq) < tau {
		limit := maxOpsBelow(tau) // sizes ≤ this are < tau
		ix.iv.smallIDs(limit, sc)
		for _, t := range sc.fringe {
			if int(t) >= q || sc.common[t] != 0 {
				continue
			}
			lb := float64(max(nq, int(ix.iv.trees[t].size)))
			dst = append(dst, Candidate{ID: int(t), LB: lb})
		}
	}
	sortByID(dst)
	return dst
}
