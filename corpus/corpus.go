// Package corpus is the persistence layer of the batch-TED stack: a
// Corpus holds trees under stable IDs, their labels as ids into one
// label table of the corpus's, together with the inverted-index posting
// lists of the similarity-join generators, and serializes the trees
// through a versioned binary codec (Save/Load).
//
// RTED's design front-loads per-tree work so it can be amortized across
// many comparisons; a corpus extends the amortization across process
// lifetimes. A server that restarts does not re-parse or re-intern its
// collection: Load decodes the label table and the trees' label ids in
// O(bytes). The maintained indexes, and the per-tree inputs of the
// distance machinery — costs, bound profile — take linear time to
// derive from the trees, so they are not stored: Load rebuilds the
// indexes from the trees' label ids once it has built the trees, and
// corpus-attached engines derive the per-tree inputs when they prepare
// a stored tree (batch.Engine.Prepare), which Warm does for every tree
// before the first request. Both halves of a restart run on every core:
// Load builds the decoded trees on GOMAXPROCS goroutines while it reads
// on, and Warm prepares them on the engine's workers.
//
// # Durability
//
// Save/Load persist point-in-time snapshots. Open adds durability
// between them: it attaches a write-ahead log (a sidecar file next to
// the snapshot) that records every Add, Delete and Replace before the
// mutation returns, and replays log-over-snapshot at startup — so a
// crash, kill -9 included, loses nothing that was acknowledged.
// Checkpoint (or SaveFile to the attached path) folds the log into a
// fresh snapshot atomically and truncates it; Sync forces the log to
// stable storage and surfaces logging failures; Close releases it. See
// wal.go for the log format and the replay semantics that make
// recovery idempotent.
//
// # Stable IDs
//
// Add assigns monotonically increasing IDs that survive Delete and
// Replace — an ID names the same logical tree for the corpus's whole
// life, across saves and loads, which is what lets external systems
// (and the maintained indexes' posting lists) refer to trees without
// renumbering.
//
// # Engines
//
// A Corpus is model-free: it stores no costs, and per-node operation
// costs are priced when an engine prepares a tree. Engines are created
// through Corpus.Engine, which attaches them to the corpus's label
// table, so any engine the corpus created prepares any of its trees
// without interning a label.
//
// Typical use:
//
//	c := corpus.New(corpus.WithHistogramIndex())
//	for _, t := range trees {
//		c.Add(t)
//	}
//	c.SaveFile("trees.tedc")
//	// ... later, in a fresh process:
//	c, _ = corpus.LoadFile("trees.tedc")
//	e := c.Engine(batch.WithWorkers(8))
//	matches, _ := c.Join(e, 12, batch.JoinOptions{})
package corpus

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"

	"repro/batch"
	"repro/index"
	"repro/internal/tree"
)

// ID names one logical tree of a corpus for the corpus's whole life:
// IDs are assigned in Add order, survive Delete (never reused) and
// Replace (same ID, new tree), and are the join/index identity after a
// save/load round trip.
type ID int64

// entry is one stored tree, immutable and on the corpus's label table.
// prep caches the last preparation (built under c.mu), so repeated joins
// through one engine prepare nothing.
type entry struct {
	t *tree.Tree

	prep    *batch.PreparedTree
	prepEng *batch.Engine
}

// Corpus is a persistent store of trees on one label table.
// All methods are safe for concurrent use.
type Corpus struct {
	mu      sync.RWMutex
	labels  *tree.LabelTable
	entries map[ID]*entry
	next    ID

	hist *index.Histogram
	pq   *index.PQGram

	// Set by Open: the attached write-ahead log and the snapshot path it
	// recovers from / Checkpoint compacts into. Nil for purely in-memory
	// corpora (New, Load). mutSeq counts mutations (under mu) so
	// Checkpoint can tell whether its lock-free snapshot flush raced one
	// and Fingerprint whether its cached hash is current; ckptMu
	// serializes whole checkpoints.
	wal      *wal
	snapPath string
	mutSeq   uint64
	ckptMu   sync.Mutex

	// Fingerprint's cache: fpSum hashes the contents as of mutSeq ==
	// fpAt-1 (fpAt 0: never computed). fpMu guards both; it is taken
	// inside the read lock, which keeps mutSeq still.
	fpMu  sync.Mutex
	fpAt  uint64
	fpSum uint64

	// Replication state (repl.go): the in-memory record bodies of the
	// current log generation, the generation id itself, and the carryover
	// position of the previous generation so a fully caught-up follower
	// survives a checkpoint without re-shipping the snapshot. replCh is a
	// broadcast channel, closed and replaced whenever the buffer or the
	// generation changes.
	replGen   string
	replRecs  [][]byte
	prevGen   string
	prevCount int
	replCh    chan struct{}
}

// Option configures New: which candidate indexes the corpus maintains.
type Option func(*indexes)

// indexes says which candidate indexes a corpus maintains: a histogram
// index, and a pq-gram index of base length q.
type indexes struct {
	hist, pqgram bool
	q            int
}

// WithHistogramIndex makes the corpus maintain a label-histogram
// inverted index (index.Histogram) incrementally: Add, Delete and
// Replace keep the posting lists in sync, Load rebuilds them from the
// stored trees (a snapshot records only that the corpus keeps the
// index), and Join uses them for candidate generation instead of
// building a throwaway index per call.
func WithHistogramIndex() Option {
	return func(ix *indexes) { ix.hist = true }
}

// WithPQGramIndex is WithHistogramIndex for the (1, q)-gram index
// (index.PQGram with stem length 1, the provably complete
// parameterization); q must be ≥ 1.
func WithPQGramIndex(q int) Option {
	return func(ix *indexes) { ix.pqgram, ix.q = true, q }
}

// New builds an empty corpus.
func New(opts ...Option) *Corpus {
	c := &Corpus{
		labels:  tree.NewLabelTable(),
		entries: make(map[ID]*entry),
	}
	c.maintain(opts)
	return c
}

// maintain creates, on the corpus's label table, each index opts ask for
// that the corpus lacks, and indexes every stored tree into it in ID
// order. It is the one way a maintained index gets built: New, Load and
// Open call it, on a corpus they do not share yet.
func (c *Corpus) maintain(opts []Option) {
	var ix indexes
	for _, o := range opts {
		o(&ix)
	}
	var fresh []interface{ Put(int, *tree.Tree) }
	if ix.hist && c.hist == nil {
		c.hist = index.NewHistogram(c.labels)
		fresh = append(fresh, c.hist)
	}
	if ix.pqgram && c.pq == nil {
		c.pq = index.NewPQGram(c.labels, ix.q)
		fresh = append(fresh, c.pq)
	}
	if len(fresh) == 0 {
		return
	}
	for _, id := range c.IDs() {
		for _, f := range fresh {
			f.Put(int(id), c.entries[id].t)
		}
	}
}

// HasHistogramIndex reports whether the corpus maintains a histogram
// index.
func (c *Corpus) HasHistogramIndex() bool { return c.hist != nil }

// HasPQGramIndex reports whether the corpus maintains a pq-gram index,
// and with which base length.
func (c *Corpus) HasPQGramIndex() (q int, ok bool) {
	if c.pq == nil {
		return 0, false
	}
	return c.pq.Q(), true
}

// Add stores t under a fresh ID and returns it. What is stored is t on
// the corpus's label table (tree.Tree.Relabel): its labels are interned
// now, once, and Tree returns that tree, equal to t. No later
// preparation of it interns a label, in this process or in any process
// that Loads a Save.
//
// Mutations update the maintained indexes while still holding the
// corpus lock (here and in Delete/Replace), so a join, which probes them
// under the same lock, never sees an index that disagrees with the
// trees.
func (c *Corpus) Add(t *tree.Tree) ID {
	t = t.Relabel(c.labels)
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	if id > math.MaxInt32 {
		panic("corpus: ID space exhausted (2^31 trees)")
	}
	c.entries[id] = &entry{t: t}
	c.indexPut(id, t)
	c.logMutation(walOpAdd, id, t)
	return id
}

// Delete removes the tree under id. The ID is never reused; the index
// postings become tombstones reclaimed by compaction. It reports
// whether a tree was stored under id.
func (c *Corpus) Delete(id ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; !ok {
		return false
	}
	delete(c.entries, id)
	if c.hist != nil {
		c.hist.Delete(int(id))
	}
	if c.pq != nil {
		c.pq.Delete(int(id))
	}
	c.logMutation(walOpDelete, id, nil)
	return true
}

// Replace swaps the tree under an existing id for t, stored on the
// corpus's label table as Add stores it, and re-indexes it under the
// same ID (the old postings become tombstones). It reports whether id
// was present.
func (c *Corpus) Replace(id ID, t *tree.Tree) bool {
	t = t.Relabel(c.labels)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; !ok {
		return false
	}
	c.entries[id] = &entry{t: t}
	c.indexPut(id, t)
	c.logMutation(walOpReplace, id, t)
	return true
}

// indexPut re-indexes one tree; callers hold c.mu.
func (c *Corpus) indexPut(id ID, t *tree.Tree) {
	if c.hist != nil {
		c.hist.Put(int(id), t)
	}
	if c.pq != nil {
		c.pq.Put(int(id), t)
	}
}

// Tree returns the tree stored under id, on the corpus's label table.
func (c *Corpus) Tree(id ID) (*tree.Tree, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	en, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	return en.t, true
}

// Len returns the number of stored trees.
func (c *Corpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// IDs returns the stored IDs in ascending order.
func (c *Corpus) IDs() []ID {
	c.mu.RLock()
	out := make([]ID, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	c.mu.RUnlock()
	slices.Sort(out)
	return out
}

// Fingerprint returns the number of stored trees and a 64-bit FNV-1a
// hash of the contents: every stored ID with its tree's shape and
// labels, in ascending ID order. Corpora with equal fingerprints hold the
// same trees under the same IDs, so the positions of their ascending-ID
// snapshots name the same trees — what a gateway checks before it deals
// position ranges to workers. An ID-only hash would collide for any two
// corpora grown the same way, which is exactly the mistake (same path,
// different file) the check exists to catch. The hash is computed at
// most once per mutation.
func (c *Corpus) Fingerprint() (trees int, sum uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.fpMu.Lock()
	defer c.fpMu.Unlock()
	if c.fpAt == c.mutSeq+1 {
		return len(c.entries), c.fpSum
	}
	ids := make([]ID, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := fnv.New64a()
	var b []byte
	for _, id := range ids {
		t := c.entries[id].t
		b = binary.AppendUvarint(b[:0], uint64(id))
		b = binary.AppendUvarint(b, uint64(t.Len()))
		for v := 0; v < t.Len(); v++ {
			lb := t.Label(v)
			b = binary.AppendUvarint(b, uint64(len(lb)))
			b = append(b, lb...)
			b = binary.AppendUvarint(b, uint64(t.NumChildren(v)))
		}
		h.Write(b)
	}
	c.fpAt, c.fpSum = c.mutSeq+1, h.Sum64()
	return len(ids), c.fpSum
}

// Engine builds a batch engine attached to this corpus: it shares the
// corpus's label table, so stored trees prepare for it without
// interning a label. Options are as for batch.New; a WithLabelTable
// among them is overridden — attachment is the point of this
// constructor.
func (c *Corpus) Engine(opts ...batch.Option) *batch.Engine {
	return batch.New(append(append([]batch.Option{}, opts...), batch.WithLabelTable(c.labels))...)
}

// checkEngine panics unless e was attached to this corpus.
func (c *Corpus) checkEngine(e *batch.Engine) {
	if e.LabelTable() != c.labels {
		panic(fmt.Sprintf(
			"corpus: engine %p is not attached to this corpus (its label ids refer to a "+
				"different label table); create engines with Corpus.Engine", e))
	}
}

// prepared returns the PreparedTree of en for engine e, caching it on
// the entry. Callers hold c.mu for writing.
func (c *Corpus) prepared(e *batch.Engine, en *entry) *batch.PreparedTree {
	if en.prep != nil && en.prepEng == e {
		return en.prep
	}
	en.prep = e.Prepare(en.t)
	en.prepEng = e
	return en.prep
}

// snapshotPrepared prepares every stored tree for e and returns the IDs
// (ascending) with their PreparedTrees, positions aligned. On a warm
// corpus (after Warm, the serving steady state) the whole snapshot is
// taken under the read lock, so concurrent joins, top-k calls and point
// reads proceed in parallel. When some entry still needs preparing, it
// takes the write lock instead, collects every entry without a current
// preparation for e and prepares their trees at once on e's workers
// (batch.Engine.PrepareAll), caching each result on its entry; that is
// also all Warm does.
//
// If under is non-nil it runs on the captured snapshot while the lock
// (read or write) is still held — the hook Join uses to probe the
// maintained indexes against the same corpus state the trees came from;
// probing after release would race a Replace that re-indexes a tree the
// snapshot still holds in its old form, yielding candidates from no
// consistent state at all.
func (c *Corpus) snapshotPrepared(e *batch.Engine, under func(ids []ID, ps []*batch.PreparedTree)) ([]ID, []*batch.PreparedTree) {
	ids := c.IDs()
	c.mu.RLock()
	ps := make([]*batch.PreparedTree, 0, len(ids))
	kept := make([]ID, 0, len(ids))
	warm := true
	for _, id := range ids {
		en, ok := c.entries[id]
		if !ok {
			continue // deleted between the two locks
		}
		if en.prep == nil || en.prepEng != e {
			warm = false
			break
		}
		ps = append(ps, en.prep)
		kept = append(kept, id)
	}
	if warm && under != nil {
		under(kept, ps)
	}
	c.mu.RUnlock()
	if warm {
		return kept, ps
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	kept = kept[:0]
	var cold []*entry
	var ts []*tree.Tree
	for _, id := range ids {
		en, ok := c.entries[id]
		if !ok {
			continue
		}
		kept = append(kept, id)
		if en.prep == nil || en.prepEng != e {
			cold = append(cold, en)
			ts = append(ts, en.t)
		}
	}
	for i, p := range e.PrepareAll(ts) {
		cold[i].prep, cold[i].prepEng = p, e
	}
	ps = ps[:0]
	for _, id := range kept {
		ps = append(ps, c.entries[id].prep)
	}
	if under != nil {
		under(kept, ps)
	}
	return kept, ps
}

// Warm makes the corpus fully ready to serve engine e: every stored
// tree is prepared into a cached PreparedTree, which prices its costs
// and derives its bound profile, so the first join after Warm pays for
// nothing but the distance computations. After Load this is where the
// per-tree work of a restart goes: decoding stored trees is O(bytes),
// and warming derives the rest from their stored label ids. The trees
// are prepared on e's workers (batch.WithWorkers) while Warm holds the
// corpus's write lock; on a corpus already warm for e it takes only the
// read lock.
func (c *Corpus) Warm(e *batch.Engine) {
	c.checkEngine(e)
	c.snapshotPrepared(e, nil)
}

// PrepareQuery prepares an ad-hoc tree — one that is not stored in the
// corpus — for use against this corpus's trees on engine e
// (corpus-attached): the request path of a server answering distance,
// bounded-distance and top-k queries about trees that arrive over the
// wire. Unlike Prepared, nothing is cached: the result lives exactly as
// long as the caller keeps it. Labels the corpus has not seen are
// interned into its table for good (see batch.Engine.Prepare).
func (c *Corpus) PrepareQuery(e *batch.Engine, t *tree.Tree) *batch.PreparedTree {
	c.checkEngine(e)
	return e.Prepare(t)
}

// Prepared returns the PreparedTree of id for engine e (caching the
// result), for callers that drive batch.Engine directly — streaming pair
// queues, top-k, bounded calls. The warm case — the entry already
// prepared for e, i.e. every request after Warm — is a read-locked map
// lookup, so concurrent request handlers do not serialize here.
func (c *Corpus) Prepared(e *batch.Engine, id ID) (*batch.PreparedTree, bool) {
	c.checkEngine(e)
	c.mu.RLock()
	en, ok := c.entries[id]
	if ok && en.prep != nil && en.prepEng == e {
		p := en.prep
		c.mu.RUnlock()
		return p, true
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok = c.entries[id]
	if !ok {
		return nil, false
	}
	return c.prepared(e, en), true
}
