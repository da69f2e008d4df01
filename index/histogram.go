package index

import (
	"sort"

	"repro/internal/tree"
)

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
// A Histogram has no lock of its own; its owner synchronizes. Add, Put
// and Delete (and the compaction they trigger) must not overlap each
// other or any other call. CandidatesBelow, Len and Snapshot only read,
// so they may run concurrently with each other; each probe carries its
// own pooled accumulator. corpus.Corpus meets this with its lock:
// mutations under the write lock, probes under the read lock.
type Histogram struct {
	ids map[string]int32 // label interner
	iv  inverted
}

// NewHistogram returns an empty label-histogram index.
func NewHistogram() *Histogram {
	return &Histogram{ids: make(map[string]int32)}
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
func (ix *Histogram) Put(id int, t *tree.Tree) {
	n := t.Len()
	ids := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		l := t.Label(v)
		kid, ok := ix.ids[l]
		if !ok {
			kid = int32(len(ix.ids))
			ix.ids[l] = kid
		}
		ids = append(ids, kid)
	}
	ix.iv.put(id, n, runLength(ids))
}

// Delete removes the tree id from the index (its postings become
// tombstones, reclaimed by the next compaction). It reports whether a
// live tree was indexed under id.
func (ix *Histogram) Delete(id int) bool { return ix.iv.delete(id) }

// runLength sorts a key-id buffer in place and collapses it into a
// (id, count) profile.
func runLength(ids []int32) []keyCount {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var prof []keyCount
	for i := 0; i < len(ids); {
		j := i
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		prof = append(prof, keyCount{id: ids[i], count: int32(j - i)})
		i = j
	}
	return prof
}

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
