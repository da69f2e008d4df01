package index

import (
	"math"
	"slices"

	"repro/internal/tree"
)

// PQGram is a pq-gram inverted index for threshold similarity joins
// (Augsten, Böhlen, Gamper — references [4,5] of the RTED paper), with
// stem length p = 1. Each indexed tree contributes its (1, q)-gram
// profile: the multiset of label tuples obtained by sliding a window of
// q consecutive children under each node. An inverted posting list maps
// every gram to the trees containing it, so a query generates exactly
// the trees sharing at least one gram — one posting-list merge instead
// of a corpus scan — and counts each one's gram overlap |P(F) ∩ P(G)| on
// the way.
//
// # Completeness
//
// The pq-gram distance does not lower-bound the standard tree edit
// distance (it bounds a fanout-weighted variant), so gram overlap alone
// cannot prune exactly. What does hold, for p = 1, is a counting
// guarantee: a single unit-cost edit operation perturbs the grams
// anchored at most at two nodes of a tree — the edited node and its
// parent (stems have no ancestors, so no other node's grams mention the
// edited one). Across a script of k operations at most 2k nodes of
// either tree are ever touched; every untouched node of F
// survives into G with its label and child list intact, so its anchored
// grams — at least one per node — appear identically in both profiles.
// Hence, counting multiset instances,
//
//	|P(F) ∩ P(G)| ≥ max(|F|, |G|) − 2k,
//
// and contrapositively a pair sharing c gram instances needs at least
// ⌈(max(|F|,|G|) − c)/2⌉ operations. CandidatesBelow applies this count
// bound during the posting-list merge — trees whose overlap deficit
// already prices them at ≥ τ are never materialized as candidates — and
// its zero-overlap special case (c = 0 forces both trees under 2k
// nodes) is the small-tree fringe sweep that keeps the generator
// complete: the surviving gram-sharers plus the fringe provably contain
// every true match.
//
// Like Histogram, a PQGram indexes trees under stable ids (Add/Put)
// and supports Delete and Put-replacement through generation-tombstoned
// postings with automatic compaction. Its grams are tuples of label ids
// of the label table it was built on, with a null that no label id can
// take, so it compares no strings. It has the same synchronization
// contract: Add, Put and Delete must not overlap each other or any other
// call; CandidatesBelow and Len may run concurrently with each other.
type PQGram struct {
	q   int
	tab *tree.LabelTable

	// The gram interner: a gram's key is its position in grams, which
	// holds each gram's q + 1 label ids in turn, and byHash finds the key
	// by a hash of the ids (on a collision, by the next hash up).
	grams  []int32
	byHash map[uint64]int32

	// Put's scratch, which only a mutation touches: the gram being
	// interned and the keys of the tree being indexed.
	gram []int32
	keys []int32

	iv inverted
}

// null is the label id of the padding in a gram: no node's, since label
// ids are never negative.
const null = -1

// NewPQGram returns an empty (1, q)-gram index keyed by the label ids of
// tab, which must give equal labels equal ids (see NewHistogram); q must
// be ≥ 1.
func NewPQGram(tab *tree.LabelTable, q int) *PQGram {
	if q < 1 {
		panic("index: pq-gram base length must be positive")
	}
	return &PQGram{q: q, tab: tab, byHash: make(map[uint64]int32)}
}

// Q returns the base length of the index's grams.
func (ix *PQGram) Q() int { return ix.q }

// Len returns the number of live (not deleted) indexed trees.
func (ix *PQGram) Len() int { return ix.iv.live }

// Add indexes t under the next unused id (insertion order when trees are
// never deleted) and returns that id.
func (ix *PQGram) Add(t *tree.Tree) int {
	id := ix.iv.reserve()
	ix.Put(id, t)
	return id
}

// Put indexes t under the stable id of the caller's choosing, replacing
// whatever tree was indexed there (the old postings become tombstones).
// Labels of t that the index's table has not seen are interned into it.
func (ix *PQGram) Put(id int, t *tree.Tree) {
	t = t.Relabel(ix.tab)
	ix.iv.put(id, t.Len(), ix.profile(t))
}

// profile returns the key of every (1, q)-gram of t, interning the new
// ones: for each node, its label and each window of q consecutive
// children in its child list padded with q − 1 nulls at both ends, and
// for a leaf one window of q nulls.
func (ix *PQGram) profile(t *tree.Tree) []int32 {
	ids := t.IDs()
	ix.keys = ix.keys[:0]
	for v := range t.Len() {
		kids := t.Children(v)
		first, last := 1-ix.q, len(kids)-1
		if len(kids) == 0 {
			first, last = 0, 0
		}
		for i := first; i <= last; i++ {
			g := append(ix.gram[:0], ids[v])
			for j := i; j < i+ix.q; j++ {
				l := int32(null)
				if 0 <= j && j < len(kids) {
					l = ids[kids[j]]
				}
				g = append(g, l)
			}
			ix.gram = g
			ix.keys = append(ix.keys, ix.key(g))
		}
	}
	return ix.keys
}

// key returns the key of gram g, interning it if it is new.
func (ix *PQGram) key(g []int32) int32 {
	n := len(g)
	for h := gramHash(g); ; h++ {
		k, ok := ix.byHash[h]
		if !ok {
			k = int32(len(ix.grams) / n)
			ix.byHash[h] = k
			ix.grams = append(ix.grams, g...)
			return k
		}
		if slices.Equal(ix.grams[int(k)*n:int(k+1)*n], g) {
			return k
		}
	}
}

// gramHash is the hash PQGram.key looks a gram up by.
func gramHash(g []int32) uint64 {
	h := uint64(0)
	for _, l := range g {
		h = (h ^ uint64(uint32(l))) * 0x9e3779b97f4a7c15
	}
	return h
}

// Delete removes the tree id from the index (its postings become
// tombstones, reclaimed by the next compaction). It reports whether a
// live tree was indexed under id.
func (ix *PQGram) Delete(id int) bool { return ix.iv.delete(id) }

// CandidatesBelow appends to dst every live tree with id < q that shares
// at least one pq-gram with tree q — plus the small-tree fringe that
// keeps the generator complete — in ascending id order, and returns the
// extended slice. Candidates ruled out by either lower bound — the size
// bound ||F|−|G||, or the gram-count bound
// ⌈(max(|F|,|G|) − |P(F) ∩ P(G)|)/2⌉ of the type comment — are
// filtered during the posting-list probe and never materialized; LB
// carries the sharper of the two bounds.
func (ix *PQGram) CandidatesBelow(q int, tau float64, dst []Candidate) []Candidate {
	dst = dst[:0]
	if tau <= 0 || q <= 0 {
		return dst
	}
	sc := getScratch()
	defer sc.release()
	// A candidate survives iff its integer ops lower bound admits some
	// k ≤ maxOps, i.e. lb ≤ maxOps ⟺ lb < tau for integer lb ≥ 0.
	maxOps := maxOpsBelow(tau)
	nq32, ok := ix.iv.accumulate(q, sc, func(t int32, qm, tm *treeMeta) {
		nq, nt := int(qm.size), int(tm.size)
		lb := nq - nt
		if lb < 0 {
			lb = -lb
		}
		// Count filter: within k unit edits the pair shares at least
		// max(|F|,|G|) − 2k gram instances, so the overlap deficit prices
		// a minimum number of operations.
		if gap := max(nq, nt) - int(sc.common[t]); gap > 0 && (gap+1)/2 > lb {
			lb = (gap + 1) / 2
		}
		if lb <= maxOps {
			dst = append(dst, Candidate{ID: int(t), LB: float64(lb)})
		}
	})
	if !ok {
		return dst
	}
	nq := int(nq32)
	// Zero-overlap fringe: k < tau edits can only erase every shared
	// gram when both trees have ≤ 2k nodes. The doubling must saturate:
	// maxOpsBelow caps at MaxInt32, which 2× overflows where int is 32
	// bits, and a wrapped-negative limit would silently skip the fringe
	// and break completeness.
	limit := maxOpsBelow(tau)
	if limit < math.MaxInt/2 {
		limit *= 2
	} else {
		limit = math.MaxInt
	}
	if nq <= limit {
		ix.iv.smallIDs(limit, sc)
		for _, t := range sc.fringe {
			if int(t) >= q || sc.common[t] != 0 {
				continue
			}
			nt := int(ix.iv.trees[t].size)
			lb := nq - nt
			if lb < 0 {
				lb = -lb
			}
			// Zero shared instances: the count bound with c = 0.
			if mx := max(nq, nt); (mx+1)/2 > lb {
				lb = (mx + 1) / 2
			}
			if lb <= maxOps {
				dst = append(dst, Candidate{ID: int(t), LB: float64(lb)})
			}
		}
	}
	sortByID(dst)
	return dst
}
