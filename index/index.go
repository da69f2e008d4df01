package index

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
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
	// Score orders candidates from most to least promising (smaller is
	// better): LB for histogram candidates, the pq-gram distance in
	// [0, 1] for pq-gram candidates.
	Score float64
}

// numShards is the posting-list shard count. Key ids are interner-dense,
// so masking the low bits spreads keys uniformly; a power of two keeps
// the shard selection a single AND. 16 shards comfortably exceed the
// worker counts the batch engine runs, and a future distributed join can
// own disjoint shard ranges.
const numShards = 16

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

// keyCount is one entry of a tree's profile: an interned key id and its
// multiplicity, sorted by id within the profile.
type keyCount struct {
	id    int32
	count int32
}

// treeMeta is the per-tree record of the inverted store. gen is the
// published generation: only postings carrying exactly it (on a live
// tree) are visible to probes. nextGen hands out generations to
// in-flight puts, so a replacement writes its postings invisibly first
// and becomes visible in one atomic publish step — probes see the old
// tree or the new one, never a half-replaced in-between.
type treeMeta struct {
	size    int32
	gen     uint32
	nextGen uint32
	alive   bool
	profLen int32 // Σ multiplicities of prof (|P(t)| for pq-grams)
	prof    []keyCount
}

// shard is one lock-striped slice of the posting lists: every key id
// with the same low bits lives here, under a lock of its own, so
// concurrent Adds append to disjoint shards and probes only share
// read locks.
type shard struct {
	mu    sync.RWMutex
	lists map[int32][]posting
}

// inverted is the bookkeeping shared by both index kinds: per-tree
// metadata under stable ids, the hash-sharded inverted posting lists,
// and a size-ordered id list for the small-tree sweeps.
//
// Locking: mu guards the tree table; each shard guards its own lists;
// sizeMu guards the lazily rebuilt size order. The only place two locks
// nest is mu (or sizeMu) taken before a shard lock — never the reverse —
// so Add, Delete, probes and compaction can all run concurrently.
type inverted struct {
	mu    sync.RWMutex
	trees []treeMeta // indexed by stable id; ids should be dense
	live  int

	sizeMu    sync.Mutex
	bySize    []int32 // live tree ids sorted by (size, id)
	sizes     []int32 // sizes parallel to bySize, frozen at rebuild
	sizeDirty bool

	shards [numShards]shard

	// Tombstone accounting for the compaction trigger. Approximate under
	// concurrency, which is fine for a heuristic.
	total atomic.Int64
	dead  atomic.Int64
}

func (iv *inverted) shardFor(key int32) *shard {
	return &iv.shards[uint32(key)&(numShards-1)]
}

// reserve hands out the next unused stable id (max id ever used, plus
// one) for the auto-id Add path, extending the table so concurrent
// reservations stay distinct.
func (iv *inverted) reserve() int {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	iv.trees = append(iv.trees, treeMeta{})
	return len(iv.trees) - 1
}

// markSizeDirty schedules a rebuild of the size order.
func (iv *inverted) markSizeDirty() {
	iv.sizeMu.Lock()
	iv.sizeDirty = true
	iv.sizeMu.Unlock()
}

// put installs (or replaces) the tree id with the given size and
// profile, in three phases: reserve a generation, append the new
// postings (invisible — probes only accept the published generation),
// then publish meta and generation in one locked step. A probe
// concurrent with put therefore sees the old tree or the new one in
// full, never a half-written mix; old postings become tombstones at the
// instant the new ones become live.
func (iv *inverted) put(id int, size int, prof []keyCount) {
	if id < 0 {
		panic("index: negative tree id")
	}
	iv.mu.Lock()
	for id >= len(iv.trees) {
		iv.trees = append(iv.trees, treeMeta{})
	}
	m := &iv.trees[id]
	m.nextGen++
	gen := m.nextGen
	iv.mu.Unlock()

	for _, kc := range prof {
		s := iv.shardFor(kc.id)
		s.mu.Lock()
		if s.lists == nil {
			s.lists = make(map[int32][]posting)
		}
		s.lists[kc.id] = append(s.lists[kc.id], posting{tree: int32(id), gen: gen, count: kc.count})
		s.mu.Unlock()
	}
	iv.total.Add(int64(len(prof)))

	iv.mu.Lock()
	m = &iv.trees[id]
	if gen > m.gen {
		if m.alive {
			iv.dead.Add(int64(len(m.prof)))
		} else {
			iv.live++
		}
		m.gen = gen
		m.size = int32(size)
		m.alive = true
		m.prof = prof
		m.profLen = 0
		for _, kc := range prof {
			m.profLen += kc.count
		}
	} else {
		// A racing put to the same id reserved a later generation and
		// published first; this put's postings are stillborn tombstones.
		iv.dead.Add(int64(len(prof)))
	}
	iv.mu.Unlock()
	iv.markSizeDirty()
	iv.maybeCompact()
}

// delete tombstones the tree id. It reports whether the id was alive.
func (iv *inverted) delete(id int) bool {
	iv.mu.Lock()
	if id < 0 || id >= len(iv.trees) || !iv.trees[id].alive {
		iv.mu.Unlock()
		return false
	}
	m := &iv.trees[id]
	m.alive = false
	iv.live--
	ndead := int64(len(m.prof))
	iv.mu.Unlock()
	iv.dead.Add(ndead)
	iv.markSizeDirty()
	iv.maybeCompact()
	return true
}

// maybeCompact runs a compaction once tombstones dominate the lists.
func (iv *inverted) maybeCompact() {
	if d := iv.dead.Load(); d > 256 && d*2 > iv.total.Load() {
		iv.compact()
	}
}

// compact rewrites every posting list, dropping tombstones (postings of
// dead trees or stale generations). It holds the tree table's write lock
// for the sweep, so it is stop-the-world for mutators and probes — run
// rarely by design; the incremental cost of a tombstone until then is
// one generation check per probe touching it.
func (iv *inverted) compact() {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	var kept int64
	for si := range iv.shards {
		s := &iv.shards[si]
		s.mu.Lock()
		for key, list := range s.lists {
			w := 0
			for _, p := range list {
				m := &iv.trees[p.tree]
				// Keep the published generation of live trees, and any
				// generation beyond it: those belong to an in-flight put
				// that has appended but not yet published.
				if (m.alive && m.gen == p.gen) || p.gen > m.gen {
					list[w] = p
					w++
				}
			}
			if w == 0 {
				delete(s.lists, key)
			} else {
				s.lists[key] = list[:w]
			}
			kept += int64(w)
		}
		s.mu.Unlock()
	}
	// Dead trees have no postings left anywhere, so their records can be
	// dropped wholesale (generations only matter while stale postings
	// exist). The table itself keeps its length: ids are forever.
	for id := range iv.trees {
		if !iv.trees[id].alive {
			iv.trees[id].prof = nil
		}
	}
	iv.total.Store(kept)
	iv.dead.Store(0)
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
// whether q is alive. The tree table's read lock is held across the
// merge and the visits, so generation checks and the bounds a visit
// computes see one consistent view, and a probe takes the lock once
// rather than once per touched tree.
func (iv *inverted) accumulate(q int, sc *probeScratch, visit func(t int32, qm, tm *treeMeta)) (qsize int32, ok bool) {
	iv.mu.RLock()
	defer iv.mu.RUnlock()
	if q < 0 || q >= len(iv.trees) || !iv.trees[q].alive {
		return 0, false
	}
	// The table cannot grow while the read lock is held, so sizing the
	// accumulator here makes every common[t] with t < q in bounds — both
	// in this merge and in the caller's fringe sweep, which only touches
	// ids below q.
	if len(sc.common) < len(iv.trees) {
		sc.common = make([]int32, len(iv.trees))
	}
	qm := &iv.trees[q]
	for _, kc := range qm.prof {
		s := iv.shardFor(kc.id)
		s.mu.RLock()
		for _, p := range s.lists[kc.id] {
			if int(p.tree) >= q {
				continue
			}
			m := &iv.trees[p.tree]
			if !m.alive || m.gen != p.gen {
				continue // tombstone
			}
			if sc.common[p.tree] == 0 {
				sc.touched = append(sc.touched, p.tree)
			}
			if p.count < kc.count {
				sc.common[p.tree] += p.count
			} else {
				sc.common[p.tree] += kc.count
			}
		}
		s.mu.RUnlock()
	}
	for _, t := range sc.touched {
		visit(t, qm, &iv.trees[t])
	}
	return qm.size, true
}

// meta returns (size, profLen, alive) for one id under the read lock.
func (iv *inverted) meta(id int32) (int32, int32, bool) {
	iv.mu.RLock()
	defer iv.mu.RUnlock()
	if id < 0 || int(id) >= len(iv.trees) {
		return 0, 0, false
	}
	m := &iv.trees[id]
	return m.size, m.profLen, m.alive
}

// smallIDs appends to sc.fringe the ids of all live trees with size ≤
// limit, ascending by (size, id), rebuilding the size order if the index
// mutated since the last sweep. Callers re-check liveness afterwards:
// under concurrent mutation the sweep is a snapshot, not a transaction.
func (iv *inverted) smallIDs(limit int, sc *probeScratch) {
	iv.sizeMu.Lock()
	if iv.sizeDirty {
		iv.mu.RLock()
		iv.bySize = iv.bySize[:0]
		for id := range iv.trees {
			if iv.trees[id].alive {
				iv.bySize = append(iv.bySize, int32(id))
			}
		}
		sizes := make([]int32, len(iv.trees))
		for id := range iv.trees {
			sizes[id] = iv.trees[id].size
		}
		iv.mu.RUnlock()
		sort.Slice(iv.bySize, func(i, j int) bool {
			a, b := iv.bySize[i], iv.bySize[j]
			if sizes[a] != sizes[b] {
				return sizes[a] < sizes[b]
			}
			return a < b
		})
		iv.sizes = iv.sizes[:0]
		for _, id := range iv.bySize {
			iv.sizes = append(iv.sizes, sizes[id])
		}
		iv.sizeDirty = false
	}
	n := sort.Search(len(iv.bySize), func(i int) bool {
		return int(iv.sizes[i]) > limit
	})
	sc.fringe = append(sc.fringe, iv.bySize[:n]...)
	iv.sizeMu.Unlock()
}

// liveCount returns the number of live trees.
func (iv *inverted) liveCount() int {
	iv.mu.RLock()
	defer iv.mu.RUnlock()
	return iv.live
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
