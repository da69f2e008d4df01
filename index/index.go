package index

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Candidate is one generated join candidate: an indexed tree that may lie
// within the query threshold. Every pair the index does NOT generate is
// guaranteed to be at distance ≥ the threshold (see the per-index
// completeness notes), so downstream verification never has to look at
// non-candidates.
type Candidate struct {
	// ID is the candidate tree's stable id (the value Add returned, or
	// the id the caller chose with Put).
	ID int
	// LB is a valid lower bound on the unit-cost tree edit distance
	// between the query and the candidate, always strictly below the
	// generating threshold. The histogram index derives it from the label
	// intersection; the pq-gram index reports the sharper of the size
	// bound and (p = 1) the gram-count bound of the PQGram type comment.
	LB float64
}

// posting is one entry of an inverted list: a tree containing the key,
// the tree's generation when the posting was written, and the key's
// multiplicity in that tree. A posting whose generation no longer
// matches its tree's is a tombstone — the tree was deleted or replaced —
// and is skipped by probes and dropped by compaction.
type posting struct {
	tree  int32
	gen   uint32
	count int32
}

// keyCount is one entry of a tree's profile: a key id and its
// multiplicity in the tree.
type keyCount struct {
	id    int32
	count int32
}

// treeMeta is the per-tree record of the inverted store. Only postings
// carrying exactly gen (on a live tree) are visible to probes; each put
// bumps it, which turns the tree's previous postings into tombstones
// without touching them.
type treeMeta struct {
	size  int32
	gen   uint32
	alive bool
	prof  []keyCount
}

// inverted is the bookkeeping shared by both index kinds: per-tree
// metadata under stable ids, the inverted posting lists, and a
// size-ordered id list for the small-tree sweeps.
//
// Its owner serializes mutations (put, delete, compact) against every
// other call, so the tree table and the lists need no lock. Concurrent
// probes only read them, except for the lazy rebuild of the size order,
// which sizeMu guards.
type inverted struct {
	trees []treeMeta // indexed by stable id; ids should be dense
	live  int
	lists [][]posting // indexed by key id, up to the largest key put

	sizeMu    sync.Mutex
	bySize    []int32 // live tree ids sorted by (size, id)
	sizeDirty bool

	// Tombstone accounting for the compaction trigger: postings in the
	// lists, and how many of them are tombstones.
	total, dead int

	prof []keyCount // put's scratch
}

// reserve hands out the next unused stable id (max id ever used, plus
// one) for the auto-id Add path.
func (iv *inverted) reserve() int {
	iv.trees = append(iv.trees, treeMeta{})
	return len(iv.trees) - 1
}

// put installs (or replaces) the tree id with the given size and keys,
// one key id per occurrence, in any order. The new postings carry a
// fresh generation, so the replaced tree's postings become tombstones.
// A key's postings for this tree are appended in one put, so the tail
// of its list counts its repeats.
func (iv *inverted) put(id int, size int, keys []int32) {
	if id < 0 {
		panic("index: negative tree id")
	}
	for id >= len(iv.trees) {
		iv.trees = append(iv.trees, treeMeta{})
	}
	m := &iv.trees[id]
	if m.alive {
		iv.dead += len(m.prof)
	} else {
		iv.live++
	}
	m.gen++
	m.size = int32(size)
	m.alive = true
	prof := iv.prof[:0]
	for _, k := range keys {
		if n := int(k) + 1; n > len(iv.lists) {
			iv.lists = append(iv.lists, make([][]posting, n-len(iv.lists))...)
		}
		list := iv.lists[k]
		if n := len(list); n > 0 && list[n-1].tree == int32(id) && list[n-1].gen == m.gen {
			list[n-1].count++
			continue
		}
		iv.lists[k] = append(list, posting{tree: int32(id), gen: m.gen, count: 1})
		prof = append(prof, keyCount{id: k})
	}
	for i, kc := range prof {
		list := iv.lists[kc.id]
		prof[i].count = list[len(list)-1].count
	}
	iv.prof, m.prof = prof, slices.Clone(prof)
	iv.total += len(prof)
	iv.sizeDirty = true
	iv.maybeCompact()
}

// delete tombstones the tree id. It reports whether the id was alive.
func (iv *inverted) delete(id int) bool {
	if id < 0 || id >= len(iv.trees) || !iv.trees[id].alive {
		return false
	}
	m := &iv.trees[id]
	m.alive = false
	iv.live--
	iv.dead += len(m.prof)
	iv.sizeDirty = true
	iv.maybeCompact()
	return true
}

// maybeCompact runs a compaction once tombstones dominate the lists.
func (iv *inverted) maybeCompact() {
	if iv.dead > 256 && iv.dead*2 > iv.total {
		iv.compact()
	}
}

// compact rewrites every posting list, dropping tombstones (postings of
// dead trees or stale generations). It runs rarely by design; the
// incremental cost of a tombstone until then is one generation check per
// probe touching it.
func (iv *inverted) compact() {
	kept := 0
	for key, list := range iv.lists {
		w := 0
		for _, p := range list {
			if m := &iv.trees[p.tree]; m.alive && m.gen == p.gen {
				list[w] = p
				w++
			}
		}
		if w == 0 {
			list = nil
		}
		iv.lists[key] = list[:w]
		kept += w
	}
	// Dead trees have no postings left anywhere, so their records can be
	// dropped wholesale (generations only matter while stale postings
	// exist). The table itself keeps its length: ids are forever.
	for id := range iv.trees {
		if !iv.trees[id].alive {
			iv.trees[id].prof = nil
		}
	}
	iv.total = kept
	iv.dead = 0
}

// probeScratch is the per-query accumulator: common[t] sums the multiset
// intersection with the query, touched records the nonzero entries for
// O(|touched|) reset. Pooled so concurrent probes don't share state.
type probeScratch struct {
	common  []int32
	touched []int32
	fringe  []int32
}

var probePool = sync.Pool{New: func() any { return &probeScratch{} }}

func getScratch() *probeScratch {
	return probePool.Get().(*probeScratch)
}

func (sc *probeScratch) release() {
	for _, t := range sc.touched {
		sc.common[t] = 0
	}
	sc.touched = sc.touched[:0]
	sc.fringe = sc.fringe[:0]
	probePool.Put(sc)
}

// accumulate merges the posting lists of q's profile keys, summing the
// multiset intersection size into sc.common[t] for every live tree t < q
// that shares at least one key with q, then calls visit(t, qm, tm) for
// each such t with the metadata of q and of t. It returns q's size and
// whether q is alive.
func (iv *inverted) accumulate(q int, sc *probeScratch, visit func(t int32, qm, tm *treeMeta)) (qsize int32, ok bool) {
	if q < 0 || q >= len(iv.trees) || !iv.trees[q].alive {
		return 0, false
	}
	// Sizing the accumulator to the table makes every common[t] with
	// t < q in bounds, both in this merge and in the caller's fringe
	// sweep, which only touches ids below q.
	if len(sc.common) < len(iv.trees) {
		sc.common = make([]int32, len(iv.trees))
	}
	trees, common := iv.trees, sc.common
	for _, kc := range trees[q].prof {
		for _, p := range iv.lists[kc.id] {
			if int(p.tree) >= q {
				continue
			}
			if m := &trees[p.tree]; !m.alive || m.gen != p.gen {
				continue // tombstone
			}
			if common[p.tree] == 0 {
				sc.touched = append(sc.touched, p.tree)
			}
			common[p.tree] += min(p.count, kc.count)
		}
	}
	qm := &trees[q]
	for _, t := range sc.touched {
		visit(t, qm, &trees[t])
	}
	return qm.size, true
}

// smallIDs appends to sc.fringe the ids of all live trees with size ≤
// limit, ascending by (size, id), rebuilding the size order if the index
// mutated since the last sweep.
func (iv *inverted) smallIDs(limit int, sc *probeScratch) {
	iv.sizeMu.Lock()
	defer iv.sizeMu.Unlock()
	if iv.sizeDirty {
		iv.bySize = iv.bySize[:0]
		for id := range iv.trees {
			if iv.trees[id].alive {
				iv.bySize = append(iv.bySize, int32(id))
			}
		}
		sort.Slice(iv.bySize, func(i, j int) bool {
			a, b := iv.trees[iv.bySize[i]].size, iv.trees[iv.bySize[j]].size
			if a != b {
				return a < b
			}
			return iv.bySize[i] < iv.bySize[j]
		})
		iv.sizeDirty = false
	}
	n := sort.Search(len(iv.bySize), func(i int) bool {
		return int(iv.trees[iv.bySize[i]].size) > limit
	})
	sc.fringe = append(sc.fringe, iv.bySize[:n]...)
}

// maxOpsBelow returns the largest number of unit-cost edit operations a
// pair with distance strictly below tau can use: one less than tau for
// integral tau, ⌊tau⌋ otherwise (unit-cost distances are integers). It is
// negative for tau ≤ 0 — no pair qualifies — and saturates for huge or
// infinite thresholds.
func maxOpsBelow(tau float64) int {
	if math.IsInf(tau, 1) || tau >= math.MaxInt32 {
		return math.MaxInt32
	}
	if tau <= 0 {
		return -1
	}
	c := math.Ceil(tau)
	if c == tau {
		return int(tau) - 1
	}
	return int(c) - 1
}

// sortByID orders candidates by id, the order join drivers consume.
func sortByID(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
}
