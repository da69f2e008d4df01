package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"repro/internal/tree"
)

// The corpus binary format, version 4. Everything multi-byte is an
// unsigned varint; strings are length-prefixed; label-valued fields
// reference the shared label table by id.
//
//	"TEDC" | version u8 | flags u8 (bit0: histogram index, bit1: pq-gram
//	                                index, bit2: section checksums)
//	label table:  if bit1: q, the pq-gram index's base length
//	              count, then per label: len, bytes          | crc32
//	next ID, tree count
//	per tree (ascending id):
//	  id, n
//	  n × label id           (the tree, with its postorder child counts:)
//	  n × child count                                        | crc32
//
// Each section is followed by the IEEE CRC32 of its encoded bytes as
// four little-endian raw bytes, so bit rot anywhere in a section is
// detected at Load instead of surfacing as a subtly wrong corpus. The
// label table's checksum also covers the header, so a flipped flag is
// caught too. Versions 3 and 4 require the bit2 flag.
//
// The label table holds the labels the stored trees use, in the order
// the corpus's table assigned them ids; labels that only queries or
// since-removed trees brought in are not written. A tree is stored as
// its label ids and its shape, nothing else, and a loaded tree keeps the
// decoded ids as its own, on the decoded label table. Everything else
// takes linear time to derive, so no stored value can disagree with its
// tree: Load rebuilds the indexes the flags name from the trees, a
// corpus-attached engine prices the costs and derives the bound profile
// whenever it prepares a stored tree (batch.Engine.Prepare), and the
// strategy computation derives the decomposition cardinalities per pair.
// The indexes key on label ids, so rebuilding them costs about what
// decoding and restoring a stored index did, while storing them made a
// snapshot 1.5 (histogram) to 4.3 times (with a pq-gram index too) the
// size of its trees: on the end-to-end benchmark's point corpus (5,000
// trees, BenchmarkCorpusOpenWarm at -cpu 1, medians of 8 runs) opening
// the snapshot took 25.4 ms with the histogram index rebuilt against
// 28.6 ms with it restored, and 75.0 against 73.8 ms with both indexes.
//
// Versions 1 to 3 also stored the maintained indexes, after the tree
// store, each in a section of its own (checksummed where the stream has
// checksums):
//
//	per maintained index (histogram, then pq-gram; pq-gram leads with
//	                      p, q, and p must be 1):
//	  key table: count, then per key: len, bytes
//	  next id, entry count
//	  per entry: id, size, profile length, pairs of (key id, count)
//
// and versions 1 and 2 the per-tree inputs, after each tree's child
// counts:
//
//	n × mirror-leafmost id
//	3 × n × decomposition cardinality (A, FL, FR)
//	profile flag u8; if 1: label histogram pairs of (label id, count),
//	branch histogram entries of (label, first child, next sibling, each
//	as label id + 1 or 0 for none; count)
//
// Load still reads them: it range-checks those fields and skips them,
// taking only q from a pq-gram section. Version 1 has no checksums, and
// in version 2 they are optional (the bit2 flag). Golden streams of
// versions 1 to 3 pin that they keep loading (TestCodecV1BackwardCompat,
// TestCodecV2BackwardCompat, TestCodecV3BackwardCompat).
//
// The decoder returns an error — never panics — on malformed input, and
// allocates proportionally to bytes actually read (counts are sanity-
// capped and slices grow by append), so truncated or hostile streams
// fail fast instead of OOMing. That contract is pinned by
// FuzzCorpusDecode.

const (
	codecMagic   = "TEDC"
	codecVersion = 4

	flagHistogram = 1 << 0
	flagPQGram    = 1 << 1
	flagChecksums = 1 << 2

	// Sanity caps: far above anything real, low enough that a hostile
	// count cannot drive super-linear work before the stream runs dry.
	maxLabels   = 1 << 24
	maxLabelLen = 1 << 20
	maxTrees    = 1 << 24
	maxNodes    = 1 << 26
	maxPostings = 1 << 28
	maxQ        = 64 // pq-gram stem and base lengths
)

// errCorrupt wraps a decode failure with stream position context.
var errCorrupt = errors.New("corpus: corrupt stream")

// Save writes the corpus — label table and trees with their label ids,
// and which indexes it maintains — to w in the versioned binary format
// (version 4, with per-section checksums). A Load of the written bytes
// reproduces the corpus exactly: same IDs, same trees, same candidate
// generation. Only the labels the stored trees use are written, so
// labels that only queries or since-removed trees brought into the
// corpus's table are not persisted.
func (c *Corpus) Save(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveLocked(w)
}

// saveLocked is Save without the locking. Callers hold c.mu, so the
// store is written as one consistent cut; Checkpoint and SnapshotBytes
// encode mid-critical-section for that reason.
func (c *Corpus) saveLocked(w io.Writer) error {
	ids := make([]ID, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	// Renumber the labels the trees use in table order: first mark them,
	// then give each its position among them.
	table := c.labels.Snapshot()
	renum := make([]int32, len(table))
	for _, id := range ids {
		for _, l := range c.entries[id].t.IDs() {
			renum[l] = 1
		}
	}
	var used []string
	for l, mark := range renum {
		if mark != 0 {
			renum[l] = int32(len(used))
			used = append(used, table[l])
		}
	}

	e := &encoder{w: bufio.NewWriter(w)}
	e.raw([]byte(codecMagic))
	flags := byte(flagChecksums)
	if c.hist != nil {
		flags |= flagHistogram
	}
	if c.pq != nil {
		flags |= flagPQGram
	}
	e.raw([]byte{codecVersion, flags}) // checksummed with the label table
	if c.pq != nil {
		e.uv(uint64(c.pq.Q()))
	}
	e.uv(uint64(len(used)))
	for _, l := range used {
		e.str(l)
	}
	e.sectionEnd()
	e.uv(uint64(c.next))
	e.uv(uint64(len(ids)))
	for _, id := range ids {
		en := c.entries[id]
		n := en.t.Len()
		e.uv(uint64(id))
		e.uv(uint64(n))
		for _, l := range en.t.IDs() {
			e.uv(uint64(renum[l]))
		}
		for v := 0; v < n; v++ {
			e.uv(uint64(en.t.NumChildren(v)))
		}
	}
	e.sectionEnd()
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// SaveFile writes the corpus to path, replacing any file there
// atomically (WriteFileAtomic): a crash or a write error mid-save leaves
// the previous file intact. On a corpus opened with Open and not yet
// closed, saving to the attached snapshot path is a Checkpoint, which
// also truncates the write-ahead log. (Paths are compared after cleaning
// and absolutizing, so "./data/c.tedc" routes to the checkpoint of
// "data/c.tedc". A symlink at path is replaced by the new file, not
// followed, so saving to a symlink alias of the attached path is no
// checkpoint and leaves the snapshot and its log as they were.)
func (c *Corpus) SaveFile(path string) error {
	c.mu.Lock()
	attached := c.wal != nil && !c.wal.isClosed() && samePath(path, c.snapPath)
	c.mu.Unlock()
	if attached {
		return c.Checkpoint()
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes())
}

// samePath reports whether two paths name the same file after cleaning
// and absolutizing (symlinks are not chased; see SaveFile).
func samePath(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return filepath.Clean(a) == filepath.Clean(b)
	}
	return aa == bb
}

// Load reads a corpus in the binary format from r. The result is
// equivalent to the saved corpus: same IDs, and the same trees, whose
// label ids are decoded in O(bytes). The maintained indexes are rebuilt
// from the trees once they are built (index.Histogram, index.PQGram);
// what preparation derives from each tree is left to the engine that
// prepares it (see Warm).
//
// Load builds the trees on GOMAXPROCS goroutines (tree.FromIDs) while it
// decodes on: it hands each tree's label ids and child counts to them
// through a bounded queue, so what it holds beyond the corpus itself
// stays bounded whatever the corpus's size. Load returns only after
// every builder has exited, and on a malformed stream it reports the
// failure that comes first in the stream, as a decoder building each
// tree in turn would.
func Load(r io.Reader) (*Corpus, error) {
	d := &decoder{r: &crcReader{r: bufio.NewReader(r)}}
	var b builders
	c, opts, err := d.corpus(&b)
	// Stream order: a tree's build failure precedes every failure found
	// after the tree was handed over.
	if berr := b.wait(); berr != nil {
		return nil, berr
	}
	if err != nil {
		return nil, err
	}
	c.maintain(opts)
	return c, nil
}

// corpus decodes the whole stream into a corpus whose trees b builds,
// and returns it with the options of the indexes the stream says it
// maintains. It reports the first failure it finds itself.
func (d *decoder) corpus(b *builders) (*Corpus, []Option, error) {
	head := d.raw(6)
	if d.err != nil {
		return nil, nil, d.fail("header")
	}
	if string(head[:4]) != codecMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", errCorrupt, head[:4])
	}
	version, flags := head[4], head[5]
	if version < 1 || version > codecVersion {
		return nil, nil, fmt.Errorf("corpus: format version %d not supported (want 1 to %d)", version, codecVersion)
	}
	known := byte(flagHistogram | flagPQGram)
	if version >= 2 {
		known |= flagChecksums
	}
	if flags&^known != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#x", errCorrupt, flags)
	}
	if version >= 3 && flags&flagChecksums == 0 {
		return nil, nil, fmt.Errorf("%w: version %d stream without section checksums", errCorrupt, version)
	}
	d.r.sums = flags&flagChecksums != 0
	d.r.state = crcInit
	if version >= 4 {
		d.r.state = ^crc32.ChecksumIEEE(head) // the label table's checksum covers the header
	}
	hist, pqgram := flags&flagHistogram != 0, flags&flagPQGram != 0

	var q uint64
	if version >= 4 && pqgram {
		q = d.count(maxQ, "pq-gram base length")
	}
	nLabels := d.count(maxLabels, "label table size")
	table := make([]string, 0, capHint(nLabels))
	for i := uint64(0); i < nLabels && d.err == nil; i++ {
		table = append(table, d.str(maxLabelLen))
	}
	if d.err != nil {
		return nil, nil, d.fail("label table")
	}
	if err := d.sectionCheck("label table"); err != nil {
		return nil, nil, err
	}
	if version >= 4 && pqgram {
		if err := pqParams(1, q); err != nil {
			return nil, nil, err
		}
	}
	// Interning the table in order gives label i id i, unless it repeats
	// a label: two ids for one label would make interning ambiguous.
	tab := tree.NewLabelTable()
	for i, id := range tab.Intern(table...) {
		if id != int32(i) {
			return nil, nil, fmt.Errorf("%w: label table entries %d and %d are both %q", errCorrupt, id, i, table[i])
		}
	}

	next := d.count(math.MaxInt32, "next id")
	nTrees := d.count(maxTrees, "tree count")
	if nTrees > next {
		return nil, nil, fmt.Errorf("%w: %d trees but next id %d", errCorrupt, nTrees, next)
	}
	c := &Corpus{labels: tab, entries: make(map[ID]*entry, capHint(nTrees)), next: ID(next)}
	b.start(tab, min(runtime.GOMAXPROCS(0), int(nTrees)))
	lastID := int64(-1)
	for ti := uint64(0); ti < nTrees; ti++ {
		id := int64(d.count(uint64(next), "tree id"))
		if d.err != nil {
			return nil, nil, d.fail("tree id")
		}
		if id <= lastID || uint64(id) >= next {
			return nil, nil, fmt.Errorf("%w: tree id %d out of order or beyond next id %d", errCorrupt, id, next)
		}
		lastID = id
		ids, counts, err := d.storedTree(uint64(tab.Len()))
		if err != nil {
			return nil, nil, err
		}
		en := &entry{}
		c.entries[ID(id)] = en
		b.build(en, ids, counts)
		if version < 3 {
			d.skipArtifacts(uint64(len(ids)), uint64(tab.Len()))
			if d.err != nil {
				return nil, nil, d.fail("stored artifacts")
			}
		}
	}
	if err := d.sectionCheck("tree store"); err != nil {
		return nil, nil, err
	}

	// Versions 1 to 3 store the maintained indexes; they are rebuilt
	// from the trees instead, so only their checks are kept.
	if version < 4 && hist {
		if err := d.skipIndex(); err != nil {
			return nil, nil, err
		}
		if err := d.sectionCheck("histogram index"); err != nil {
			return nil, nil, err
		}
	}
	if version < 4 && pqgram {
		p := d.count(maxQ, "pq-gram stem length")
		q = d.count(maxQ, "pq-gram base length")
		if err := d.skipIndex(); err != nil {
			return nil, nil, err
		}
		if err := d.sectionCheck("pq-gram index"); err != nil {
			return nil, nil, err
		}
		if err := pqParams(p, q); err != nil {
			return nil, nil, err
		}
	}
	// A sticky decode error may have been swallowed structurally (a torn
	// "next id" leaves zero trees to decode): nothing that poisoned the
	// decoder may load as a smaller-but-valid corpus.
	if d.err != nil {
		return nil, nil, d.fail("corpus")
	}
	// The stream must end exactly here: trailing garbage means the
	// payload and the container disagree about what was written.
	if _, err := d.r.ReadByte(); err != io.EOF {
		return nil, nil, fmt.Errorf("%w: trailing data after corpus", errCorrupt)
	}
	var opts []Option
	if hist {
		opts = append(opts, WithHistogramIndex())
	}
	if pqgram {
		opts = append(opts, WithPQGramIndex(int(q)))
	}
	return c, opts, nil
}

// builders build the trees Load decodes (tree.FromIDs) on goroutines of
// their own while the decoder reads on. A tree's entry is in the corpus
// from the moment it is decoded, in stream order, and gets its tree
// when a builder is done with it; nothing reads the tree before wait.
type builders struct {
	jobs   chan buildJob
	wg     sync.WaitGroup
	queued int // trees handed over so far: the next one's stream position

	mu     sync.Mutex
	errPos int // stream position of the first tree that failed to build
	err    error
}

// buildJob is one decoded tree: its stream position, the entry to store
// it in, and the label ids (which the tree keeps) and child counts to
// build it from.
type buildJob struct {
	pos    int
	en     *entry
	ids    []int32
	counts []int
}

// buildQueue is how many decoded trees may wait for a builder. It bounds
// the child counts Load holds at once, and it is deep enough that the
// decoder need not stop while a builder finishes a large tree.
const buildQueue = 64

// start launches n builders for trees on tab.
func (b *builders) start(tab *tree.LabelTable, n int) {
	b.jobs, b.errPos = make(chan buildJob, buildQueue), math.MaxInt
	for range n {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			for j := range b.jobs {
				t, err := tree.FromIDs(tab, j.ids, j.counts)
				if err != nil {
					b.failed(j.pos, fmt.Errorf("%w: %v", errCorrupt, err))
					continue
				}
				j.en.t = t
			}
		}()
	}
}

// build hands the next tree of the stream to the builders.
func (b *builders) build(en *entry, ids []int32, counts []int) {
	b.jobs <- buildJob{pos: b.queued, en: en, ids: ids, counts: counts}
	b.queued++
}

// failed records a tree's build failure unless an earlier tree failed.
func (b *builders) failed(pos int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pos < b.errPos {
		b.errPos, b.err = pos, err
	}
}

// wait closes the queue and returns once every builder has exited, with
// the failure of the first tree in stream order that did not build.
func (b *builders) wait() error {
	if b.jobs == nil {
		return nil // never started
	}
	close(b.jobs)
	b.wg.Wait()
	return b.err
}

// LoadFile reads a corpus from path.
func LoadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// ---- encoding ----

type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
	crc uint32 // running IEEE CRC32 of the current section
}

func (e *encoder) raw(b []byte) {
	if e.err == nil {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, b)
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) uv(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uv(uint64(len(s)))
	if e.err == nil {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, []byte(s))
		_, e.err = e.w.WriteString(s)
	}
}

// sectionEnd closes a section: the running CRC32 is written as four raw
// little-endian bytes (authenticating the section, not part of the next
// one) and the accumulator resets.
func (e *encoder) sectionEnd() {
	if e.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], e.crc)
	_, e.err = e.w.Write(b[:])
	e.crc = 0
}

// ---- decoding ----

type decoder struct {
	r   *crcReader
	err error
}

// crcReader wraps the buffered input so every byte the decoder consumes
// runs through the running section checksum. It implements io.Reader and
// io.ByteReader, which is all binary.ReadUvarint and io.ReadFull need.
//
// state holds the raw (pre-inversion) CRC32 accumulator, so the
// byte-at-a-time path of the varint-heavy decode is one table lookup —
// calling crc32.Update per byte would pay the generic slice-update
// setup thousands of times and measurably slow Load down.
type crcReader struct {
	r     *bufio.Reader
	sums  bool
	state uint32
}

// crcInit is the raw accumulator at a section start (^0: Go's Update
// inverts on entry and exit; we keep the inverted state between bytes).
const crcInit = ^uint32(0)

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if cr.sums && n > 0 {
		cr.state = ^crc32.Update(^cr.state, crc32.IEEETable, p[:n])
	}
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if cr.sums && err == nil {
		cr.state = crc32.IEEETable[byte(cr.state)^b] ^ (cr.state >> 8)
	}
	return b, err
}

// uvarints decodes whole varints from the buffered input into dst until
// dst is full or the next one does not lie whole in the buffer, adds the
// bytes it took to the checksum in one update, and returns how many it
// decoded. A varint that straddles a refill, is cut short or overflows
// is left to binary.ReadUvarint, which reads it a byte at a time and
// words the error.
func (cr *crcReader) uvarints(dst []uint64) int {
	buf, _ := cr.r.Peek(cr.r.Buffered())
	k, off := 0, 0
	for ; k < len(dst); k++ {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			break
		}
		dst[k], off = v, off+n
	}
	if cr.sums {
		cr.state = ^crc32.Update(^cr.state, crc32.IEEETable, buf[:off])
	}
	cr.r.Discard(off)
	return k
}

// sectionCheck closes a checksummed section on the decode side: the four
// stored CRC bytes are read outside the checksum stream and compared to
// the accumulator. A no-op on v1 streams.
func (d *decoder) sectionCheck(what string) error {
	if !d.r.sums || d.err != nil {
		return nil
	}
	var b [4]byte
	if _, err := io.ReadFull(d.r.r, b[:]); err != nil {
		return fmt.Errorf("%w: %s checksum: %v", errCorrupt, what, err)
	}
	want := binary.LittleEndian.Uint32(b[:])
	if got := ^d.r.state; got != want {
		return fmt.Errorf("%w: %s checksum mismatch (stored %08x, computed %08x)", errCorrupt, what, want, got)
	}
	d.r.state = crcInit
	return nil
}

func (d *decoder) fail(what string) error {
	if d.err == nil {
		return nil
	}
	return fmt.Errorf("%w: %s: %v", errCorrupt, what, d.err)
}

func (d *decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
		return 0
	}
	return v
}

// count reads a uvarint and enforces an inclusive upper bound; the first
// violation poisons the decoder.
func (d *decoder) count(max uint64, what string) uint64 {
	v := d.uv()
	if d.err == nil && v > max {
		d.err = fmt.Errorf("%s %d exceeds limit %d", what, v, max)
	}
	if d.err != nil {
		return 0
	}
	return v
}

// idx reads a uvarint that must index into a table of the given size
// (strictly less than limit; limit 0 admits nothing).
func (d *decoder) idx(limit uint64, what string) uint64 {
	v := d.uv()
	if d.err == nil && v >= limit {
		d.err = outside(what, v, limit)
	}
	if d.err != nil {
		return 0
	}
	return v
}

func outside(what string, v, limit uint64) error {
	return fmt.Errorf("%s %d outside [0, %d)", what, v, limit)
}

// idxs reads n values as idx does, each below limit, and hands them to
// put in order: runs of them straight from the buffered input
// (crcReader.uvarints), any other one through idx. The first failure
// poisons the decoder as idx's does, and no value after it reaches put.
func (d *decoder) idxs(n int, limit uint64, what string, put func(uint64)) {
	var run [128]uint64
	for n > 0 && d.err == nil {
		k := d.r.uvarints(run[:min(n, len(run))])
		if k == 0 {
			if v := d.idx(limit, what); d.err == nil {
				put(v)
				n--
			}
			continue
		}
		for _, v := range run[:k] {
			if v >= limit {
				d.err = outside(what, v, limit)
				return
			}
			put(v)
		}
		n -= k
	}
}

// positive reads a count that must lie in [1, max].
func (d *decoder) positive(max uint64, what string) {
	if d.count(max, what) == 0 && d.err == nil {
		d.err = fmt.Errorf("zero %s", what)
	}
}

func (d *decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return nil
	}
	return b
}

func (d *decoder) str(maxLen uint64) string {
	n := d.count(maxLen, "string length")
	if d.err != nil {
		return ""
	}
	return string(d.raw(int(n)))
}

// capHint bounds an upfront allocation by what a short stream could
// actually back: slices and maps start at min(claimed, 4096) and grow as
// they fill, so a hostile count allocates no faster than bytes arrive.
func capHint(n uint64) int {
	if n > 4096 {
		return 4096
	}
	return int(n)
}

// storedTree decodes one tree's label ids (each below nLabels) and child
// counts. A legacy (version 1 or 2) stream stores per-tree inputs after
// them, which the caller skips.
func (d *decoder) storedTree(nLabels uint64) ([]int32, []int, error) {
	n64 := d.count(maxNodes, "node count")
	if d.err != nil {
		return nil, nil, d.fail("node count")
	}
	if n64 == 0 {
		return nil, nil, fmt.Errorf("%w: zero-node tree", errCorrupt)
	}
	n := int(n64)

	ids := make([]int32, 0, capHint(n64))
	d.idxs(n, nLabels, "label id", func(v uint64) { ids = append(ids, int32(v)) })
	if d.err != nil {
		return nil, nil, d.fail("labels")
	}
	counts := make([]int, 0, capHint(n64))
	d.idxs(n, uint64(n), "child count", func(v uint64) { counts = append(counts, int(v)) })
	if d.err != nil {
		return nil, nil, d.fail("child counts")
	}
	return ids, counts, nil
}

// skipArtifacts reads past the per-tree inputs a legacy stream stores
// after an n-node tree's child counts, range-checking every field.
// Nothing reads their values: preparation derives them from the tree.
func (d *decoder) skipArtifacts(n, labels uint64) {
	for i := uint64(0); i < n && d.err == nil; i++ {
		d.idx(n, "mirror-leafmost id")
	}
	for i := uint64(0); i < 3*n && d.err == nil; i++ {
		d.count(math.MaxInt64, "decomposition cardinality")
	}
	flag := d.raw(1)
	if d.err != nil || flag[0] == 0 {
		return
	}
	if flag[0] != 1 {
		d.err = fmt.Errorf("profile flag %d", flag[0])
		return
	}
	nl := d.count(n, "profile label entries")
	for i := uint64(0); i < nl && d.err == nil; i++ {
		d.idx(labels, "profile label id")
		d.positive(n, "profile label count")
	}
	nb := d.count(n, "profile branch entries")
	for i := uint64(0); i < nb && d.err == nil; i++ {
		for k := 0; k < 3; k++ {
			d.count(labels, "branch label id")
		}
		d.positive(n, "profile branch count")
	}
}

// skipIndex reads past the key table and entries of an index section a
// legacy (version 1 to 3) stream stores, range-checking every field.
// Nothing reads their values: Load rebuilds the index from the trees.
func (d *decoder) skipIndex() error {
	nKeys := d.count(maxPostings, "index key count")
	for i := uint64(0); i < nKeys && d.err == nil; i++ {
		d.str(maxLabelLen)
	}
	d.count(math.MaxInt32, "index next id")
	nEntries := d.count(maxTrees, "index entry count")
	for i := uint64(0); i < nEntries && d.err == nil; i++ {
		d.count(math.MaxInt32, "index entry id")
		d.count(maxNodes, "index entry size")
		profLen := d.count(maxPostings, "index profile length")
		for k := uint64(0); k < profLen && d.err == nil; k++ {
			d.count(math.MaxInt32, "index key id")
			d.count(math.MaxInt32, "index key count")
		}
	}
	return d.fail("index")
}

// pqParams checks the stem length p and base length q of a pq-gram
// index: a (1, q)-gram index is the only complete one.
func pqParams(p, q uint64) error {
	if p != 1 || q < 1 {
		return fmt.Errorf("%w: pq-gram parameters (%d, %d), want (1, q ≥ 1)", errCorrupt, p, q)
	}
	return nil
}
