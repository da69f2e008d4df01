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
	"slices"
	"sort"
	"strings"

	"repro/index"
	"repro/internal/bounds"
	"repro/internal/cost"
	"repro/internal/gted"
	"repro/internal/strategy"
	"repro/internal/tree"
)

// The corpus binary format, version 2. Everything multi-byte is an
// unsigned varint; strings are length-prefixed; label-valued fields
// reference the shared label table by id (branch triples use 0 for a
// missing position and id+1 otherwise).
//
//	"TEDC" | version u8 | flags u8 (bit0: histogram index, bit1: pq-gram
//	                                index, bit2: section checksums)
//	label table:  count, then per label: len, bytes          | [crc32]
//	next ID, tree count
//	per tree (ascending id):
//	  id, n
//	  n × label id           (the tree, with its postorder child counts:)
//	  n × child count
//	  n × mirror-leafmost    (artifacts)
//	  3 × n × decomposition cardinality (A, FL, FR)
//	  profile flag u8; if 1: label histogram pairs of (label id,
//	  count), branch histogram entries of (label, first child, next
//	  sibling, count), each list in label-string order       | [crc32]
//	per maintained index (histogram, then pq-gram; pq-gram leads with
//	                      p, q, and p must be 1):
//	  key table: count, then per key: len, bytes
//	  next id, entry count
//	  per entry: id, size, profile length, pairs of (key id, count)
//	                                                         | [crc32]
//
// The artifacts are redundant with the tree: Load recomputes the
// mirror-leafmost array and the decomposition cardinalities, rebuilds
// the bound profile from the label ids, and rejects a stream whose
// stored values disagree with them, so a checksum-less (version 1)
// stream cannot pair a tree with artifacts that would crash its
// distance runs or prune its true matches.
//
// Version 2 adds the bit2 flag: when set, every section (label table,
// tree store, each index) is followed by the IEEE CRC32 of its encoded
// bytes as four little-endian raw bytes, so bit rot anywhere in a
// section is detected at Load instead of surfacing as a subtly wrong
// corpus. Save always writes version 2 with checksums; the decoder still
// accepts checksum-less version 1 streams byte for byte (pinned by
// TestCodecV1BackwardCompat).
//
// The decoder returns an error — never panics — on malformed input, and
// allocates proportionally to bytes actually read (counts are sanity-
// capped and slices grow by append), so truncated or hostile streams
// fail fast instead of OOMing. That contract is pinned by
// FuzzCorpusDecode.

const (
	codecMagic     = "TEDC"
	codecVersion   = 2
	codecVersionV1 = 1

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
)

// errCorrupt wraps a decode failure with stream position context.
var errCorrupt = errors.New("corpus: corrupt stream")

// Save writes the corpus — trees, label table, prepared artifacts and
// any maintained indexes — to w in the versioned binary format (version
// 2, with per-section checksums). A Load of the written bytes reproduces
// the corpus exactly: same IDs, same artifacts, same candidate
// generation. Lower-bound profiles are forced before writing so the
// persisted corpus never recomputes them.
func (c *Corpus) Save(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveLocked(w, codecVersion)
}

// saveLocked is Save without the locking, at an explicit format version
// (the v1 path exists only so the backward-compat test can produce real
// v1 streams). Callers hold c.mu; Checkpoint calls this mid-critical-
// section so no mutation can slip between the snapshot and the log
// truncation.
func (c *Corpus) saveLocked(w io.Writer, version byte) error {
	ids := make([]ID, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	sortIDs(ids)
	// Lazy artifacts are forced now: the stream always carries them, so
	// a loaded corpus never recomputes what the saving process already
	// paid for.
	for _, id := range ids {
		en := c.entries[id]
		if en.prof == nil {
			en.prof = bounds.NewProfile(en.t, en.ids)
		}
		if en.decomp == nil {
			en.decomp = strategy.NewDecomp(en.t)
		}
	}
	table := c.in.Table()

	e := &encoder{w: bufio.NewWriter(w), sums: version >= codecVersion}
	e.raw([]byte(codecMagic))
	flags := byte(0)
	if c.hist != nil {
		flags |= flagHistogram
	}
	if c.pq != nil {
		flags |= flagPQGram
	}
	if e.sums {
		flags |= flagChecksums
	}
	e.raw([]byte{version, flags})
	e.crc = 0 // the header authenticates itself; sections start here

	e.uv(uint64(len(table)))
	for _, l := range table {
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
		for _, lid := range en.ids {
			e.uv(uint64(lid))
		}
		for v := 0; v < n; v++ {
			e.uv(uint64(en.t.NumChildren(v)))
		}
		for _, m := range en.lfm {
			e.uv(uint64(m))
		}
		for _, a := range en.decomp.A {
			e.uv(uint64(a))
		}
		for _, a := range en.decomp.FL {
			e.uv(uint64(a))
		}
		for _, a := range en.decomp.FR {
			e.uv(uint64(a))
		}
		e.raw([]byte{1})
		e.profile(en.prof, table)
	}
	e.sectionEnd()
	if c.hist != nil {
		e.snapshot(c.hist.Snapshot())
		e.sectionEnd()
	}
	if c.pq != nil {
		e.uv(1) // stem length p: a pq-gram index is always a (1, q)-gram index
		e.uv(uint64(c.pq.Q()))
		e.snapshot(c.pq.Snapshot())
		e.sectionEnd()
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// SaveFile writes the corpus to path (created or truncated). On a corpus
// opened with Open, saving to the attached snapshot path is a
// Checkpoint: the snapshot is replaced atomically and the write-ahead
// log truncated with it. (Paths are compared after cleaning and
// absolutizing, so "./data/c.tedc" routes to the checkpoint of
// "data/c.tedc"; a symlink alias of the attached path is not detected
// and would overwrite the snapshot non-atomically — name the snapshot
// the way Open did.)
func (c *Corpus) SaveFile(path string) error {
	c.mu.Lock()
	toAttached := c.wal != nil && samePath(path, c.snapPath)
	closed := toAttached && c.wal.isClosed()
	c.mu.Unlock()
	if toAttached && !closed {
		return c.Checkpoint()
	}
	if closed {
		// After Close the checkpoint machinery is gone, but this path is
		// still the one the sidecar log will replay over, so the write
		// must stay atomic (temp + fsync + rename): a crash mid-write
		// must never leave a half-snapshot that makes the acknowledged
		// log records unreachable. The surviving log is a subset of the
		// state being written, and replay is idempotent. (This mirrors
		// the replace protocol of swapSnapshotLocked in wal.go — change
		// one, change both.)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := writeFileSync(tmp, buf.Bytes()); err != nil {
			os.Remove(tmp)
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return err
		}
		return syncDir(filepath.Dir(path))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// corpusFileName is the file SaveDir/LoadDir use inside their directory.
const corpusFileName = "corpus.tedc"

// SaveDir writes the corpus into dir (created if missing) under the
// canonical file name, the layout LoadDir expects.
func (c *Corpus) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return c.SaveFile(filepath.Join(dir, corpusFileName))
}

// Load reads a corpus in the binary format from r. The result is
// equivalent to the saved corpus: same IDs and trees, artifacts decoded
// and checked against their trees in O(bytes), maintained indexes
// rebuilt from their persisted profiles with plain appends — no
// re-parsing, no re-hashing of grams, no re-sorting.
func Load(r io.Reader) (*Corpus, error) {
	d := &decoder{r: &crcReader{r: bufio.NewReader(r)}}

	head := d.raw(6)
	if d.err != nil {
		return nil, d.fail("header")
	}
	if string(head[:4]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %q", errCorrupt, head[:4])
	}
	if head[4] != codecVersion && head[4] != codecVersionV1 {
		return nil, fmt.Errorf("corpus: format version %d not supported (want %d or %d)", head[4], codecVersionV1, codecVersion)
	}
	flags := head[5]
	known := byte(flagHistogram | flagPQGram)
	if head[4] >= codecVersion {
		known |= flagChecksums
	}
	if flags&^known != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", errCorrupt, flags)
	}
	d.r.sums = flags&flagChecksums != 0
	d.r.state = crcInit

	nLabels := d.count(maxLabels, "label table size")
	table := make([]string, 0, capHint(nLabels))
	for i := uint64(0); i < nLabels; i++ {
		table = append(table, d.str(maxLabelLen))
		if d.err != nil {
			return nil, d.fail("label table")
		}
	}
	if err := d.sectionCheck("label table"); err != nil {
		return nil, err
	}
	in, err := cost.NewInternerFromTable(table)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}

	c := &Corpus{in: in, entries: make(map[ID]*entry)}
	next := d.count(math.MaxInt32, "next id")
	nTrees := d.count(maxTrees, "tree count")
	if nTrees > next {
		return nil, fmt.Errorf("%w: %d trees but next id %d", errCorrupt, nTrees, next)
	}
	c.next = ID(next)
	lastID := int64(-1)
	for ti := uint64(0); ti < nTrees; ti++ {
		id := int64(d.count(uint64(next), "tree id"))
		if d.err != nil {
			return nil, d.fail("tree id")
		}
		if id <= lastID || uint64(id) >= next {
			return nil, fmt.Errorf("%w: tree id %d out of order or beyond next id %d", errCorrupt, id, next)
		}
		lastID = id
		en, err := d.entry(table)
		if err != nil {
			return nil, err
		}
		c.entries[ID(id)] = en
	}
	if err := d.sectionCheck("tree store"); err != nil {
		return nil, err
	}

	if flags&flagHistogram != 0 {
		snap, err := d.indexSnapshot()
		if err != nil {
			return nil, err
		}
		if err := d.sectionCheck("histogram index"); err != nil {
			return nil, err
		}
		c.hist, err = index.RestoreHistogram(snap)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		if err := c.crossCheckIndex(c.hist.Len(), snap, "histogram"); err != nil {
			return nil, err
		}
	}
	if flags&flagPQGram != 0 {
		p := d.count(64, "pq-gram stem length")
		q := d.count(64, "pq-gram base length")
		snap, err := d.indexSnapshot()
		if err != nil {
			return nil, err
		}
		if err := d.sectionCheck("pq-gram index"); err != nil {
			return nil, err
		}
		if p != 1 || q < 1 {
			return nil, fmt.Errorf("%w: pq-gram parameters (%d, %d), want (1, q ≥ 1)", errCorrupt, p, q)
		}
		c.pq, err = index.RestorePQGram(int(q), snap)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		if err := c.crossCheckIndex(c.pq.Len(), snap, "pq-gram"); err != nil {
			return nil, err
		}
	}
	// A sticky decode error may have been swallowed structurally (a
	// truncated final profile leaves entry() with empty loops, a torn
	// "next id" leaves zero trees to decode): nothing that poisoned the
	// decoder may load as a smaller-but-valid corpus.
	if d.err != nil {
		return nil, d.fail("corpus")
	}
	// The stream must end exactly here: trailing garbage means the
	// payload and the container disagree about what was written.
	if _, err := d.r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after corpus", errCorrupt)
	}
	return c, nil
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

// LoadDir reads the corpus SaveDir wrote into dir.
func LoadDir(dir string) (*Corpus, error) {
	return LoadFile(filepath.Join(dir, corpusFileName))
}

// crossCheckIndex verifies that a restored index covers exactly the
// corpus's trees with the right sizes — an index drifting from its
// store would silently produce wrong join candidates.
func (c *Corpus) crossCheckIndex(liveCount int, snap *index.Snapshot, kind string) error {
	if liveCount != len(c.entries) {
		return fmt.Errorf("%w: %s index holds %d trees, corpus %d", errCorrupt, kind, liveCount, len(c.entries))
	}
	for _, se := range snap.Entries {
		en, ok := c.entries[ID(se.ID)]
		if !ok {
			return fmt.Errorf("%w: %s index entry %d has no corpus tree", errCorrupt, kind, se.ID)
		}
		if en.t.Len() != se.Size {
			return fmt.Errorf("%w: %s index entry %d has size %d, tree has %d nodes", errCorrupt, kind, se.ID, se.Size, en.t.Len())
		}
	}
	return nil
}

// ---- encoding ----

type encoder struct {
	w    *bufio.Writer
	buf  [binary.MaxVarintLen64]byte
	err  error
	sums bool
	crc  uint32 // running IEEE CRC32 of the current section

	// Reused across trees: a profile's entries re-sorted into label order.
	lcs []bounds.LabelCount
	bcs []bounds.BranchCount
}

func (e *encoder) raw(b []byte) {
	if e.err == nil {
		if e.sums {
			e.crc = crc32.Update(e.crc, crc32.IEEETable, b)
		}
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
		if e.sums {
			e.crc = crc32.Update(e.crc, crc32.IEEETable, []byte(s))
		}
		_, e.err = e.w.WriteString(s)
	}
}

// sectionEnd closes a checksummed section: the running CRC32 is written
// as four raw little-endian bytes (authenticating the section, not part
// of the next one) and the accumulator resets. A no-op for v1 streams.
func (e *encoder) sectionEnd() {
	if !e.sums || e.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], e.crc)
	_, e.err = e.w.Write(b[:])
	e.crc = 0
}

// profile writes a profile's two histograms. Entries go out in
// label-string order — the order the format has always stored them in —
// not in the profile's id order; branch positions are 0 for
// bounds.NoLabel (a missing position or the empty label, which the
// branch histogram does not tell apart) and label id + 1 otherwise.
func (e *encoder) profile(p *bounds.Profile, table []string) {
	name := func(id int32) string {
		if id == bounds.NoLabel {
			return ""
		}
		return table[id]
	}
	e.lcs = append(e.lcs[:0], p.LabelCounts()...)
	slices.SortFunc(e.lcs, func(a, b bounds.LabelCount) int {
		return strings.Compare(table[a.ID], table[b.ID])
	})
	e.uv(uint64(len(e.lcs)))
	for _, lc := range e.lcs {
		e.uv(uint64(lc.ID))
		e.uv(uint64(lc.Count))
	}
	e.bcs = append(e.bcs[:0], p.BranchCounts()...)
	slices.SortFunc(e.bcs, func(a, b bounds.BranchCount) int {
		if c := strings.Compare(name(a.Label), name(b.Label)); c != 0 {
			return c
		}
		if c := strings.Compare(name(a.FirstChild), name(b.FirstChild)); c != 0 {
			return c
		}
		return strings.Compare(name(a.NextSibling), name(b.NextSibling))
	})
	e.uv(uint64(len(e.bcs)))
	for _, bc := range e.bcs {
		e.uv(uint64(bc.Label + 1))
		e.uv(uint64(bc.FirstChild + 1))
		e.uv(uint64(bc.NextSibling + 1))
		e.uv(uint64(bc.Count))
	}
}

func (e *encoder) snapshot(s *index.Snapshot) {
	e.uv(uint64(len(s.Keys)))
	for _, k := range s.Keys {
		e.str(k)
	}
	e.uv(uint64(s.NextID))
	e.uv(uint64(len(s.Entries)))
	for _, se := range s.Entries {
		e.uv(uint64(se.ID))
		e.uv(uint64(se.Size))
		e.uv(uint64(len(se.Prof)))
		for _, kc := range se.Prof {
			e.uv(uint64(kc.Key))
			e.uv(uint64(kc.Count))
		}
	}
}

// ---- decoding ----

type decoder struct {
	r   *crcReader
	err error

	// Reused across trees: the stored histograms of the current profile.
	lcs []bounds.LabelCount
	bcs []bounds.BranchCount
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
		d.err = fmt.Errorf("%s %d outside [0, %d)", what, v, limit)
	}
	if d.err != nil {
		return 0
	}
	return v
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
// actually back: slices start at min(claimed, 4096) and grow by append,
// so a hostile count allocates no faster than bytes arrive.
func capHint(n uint64) int {
	if n > 4096 {
		return 4096
	}
	return int(n)
}

// entry decodes one tree with its artifacts.
func (d *decoder) entry(table []string) (*entry, error) {
	n64 := d.count(maxNodes, "node count")
	if d.err != nil {
		return nil, d.fail("node count")
	}
	if n64 == 0 {
		return nil, fmt.Errorf("%w: zero-node tree", errCorrupt)
	}
	n := int(n64)

	ids := make([]int32, 0, capHint(n64))
	labels := make([]string, 0, capHint(n64))
	for v := 0; v < n; v++ {
		lid := d.idx(uint64(len(table)), "label id")
		if d.err != nil {
			return nil, d.fail("labels")
		}
		ids = append(ids, int32(lid))
		labels = append(labels, table[lid])
	}
	counts := make([]int, 0, capHint(n64))
	for v := 0; v < n; v++ {
		k := d.idx(uint64(n), "child count")
		if d.err != nil {
			return nil, d.fail("child counts")
		}
		counts = append(counts, int(k))
	}
	t, err := tree.FromPostorder(tree.PostorderForm{Labels: labels, ChildCounts: counts})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}

	// The stored artifacts are recomputed from the tree and each stored
	// value must equal its recomputed one: a checksum-less stream must
	// not hand ΔR indexes outside the tree or the strategy DP wrong
	// cardinalities.
	lfm := gted.MirrorLeafmost(t)
	for v := 0; v < n; v++ {
		m := d.idx(uint64(n), "mirror-leafmost id")
		if d.err != nil {
			return nil, d.fail("mirror-leafmost")
		}
		if int32(m) != lfm[v] {
			return nil, fmt.Errorf("%w: stored mirror-leafmost array disagrees with the tree at node %d", errCorrupt, v)
		}
	}
	dec := strategy.NewDecomp(t)
	for _, want := range [][]int64{dec.A, dec.FL, dec.FR} {
		for v := 0; v < n; v++ {
			a := d.count(math.MaxInt64, "decomposition cardinality")
			if d.err != nil {
				return nil, d.fail("decomposition")
			}
			if a != uint64(want[v]) {
				return nil, fmt.Errorf("%w: stored decomposition cardinalities disagree with the tree at node %d", errCorrupt, v)
			}
		}
	}

	en := &entry{t: t, ids: ids, lfm: lfm, decomp: dec}
	hasProf := d.raw(1)
	if d.err != nil {
		return nil, d.fail("profile flag")
	}
	switch hasProf[0] {
	case 0:
	case 1:
		nl := d.count(uint64(n), "profile label entries")
		d.lcs = d.lcs[:0]
		for i := uint64(0); i < nl; i++ {
			lid := d.idx(uint64(len(table)), "profile label id")
			cnt := d.count(uint64(n), "profile label count")
			if d.err != nil {
				return nil, d.fail("profile labels")
			}
			if cnt == 0 {
				return nil, fmt.Errorf("%w: zero profile label count", errCorrupt)
			}
			d.lcs = append(d.lcs, bounds.LabelCount{ID: int32(lid), Count: int32(cnt)})
		}
		nb := d.count(uint64(n), "profile branch entries")
		d.bcs = d.bcs[:0]
		for i := uint64(0); i < nb; i++ {
			bc := bounds.BranchCount{
				Label:       d.branchLabel(table),
				FirstChild:  d.branchLabel(table),
				NextSibling: d.branchLabel(table),
			}
			cnt := d.count(uint64(n), "profile branch count")
			if d.err != nil {
				return nil, d.fail("profile branches")
			}
			if cnt == 0 {
				return nil, fmt.Errorf("%w: zero profile branch count", errCorrupt)
			}
			bc.Count = int32(cnt)
			d.bcs = append(d.bcs, bc)
		}
		prof, err := bounds.RestoreProfile(t, ids, d.lcs, d.bcs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		en.prof = prof
	default:
		return nil, fmt.Errorf("%w: profile flag %d", errCorrupt, hasProf[0])
	}
	return en, nil
}

// branchLabel decodes a branch-triple position: 0 for a missing
// position, label id + 1 otherwise. The empty label reads as
// bounds.NoLabel, as the encoder writes it.
func (d *decoder) branchLabel(table []string) int32 {
	v := d.count(uint64(len(table)), "branch label id")
	if d.err != nil || v == 0 || table[v-1] == "" {
		return bounds.NoLabel
	}
	return int32(v - 1)
}

func (d *decoder) indexSnapshot() (*index.Snapshot, error) {
	nKeys := d.count(maxPostings, "index key count")
	keys := make([]string, 0, capHint(nKeys))
	for i := uint64(0); i < nKeys; i++ {
		keys = append(keys, d.str(maxLabelLen))
		if d.err != nil {
			return nil, d.fail("index keys")
		}
	}
	nextID := d.count(math.MaxInt32, "index next id")
	nEntries := d.count(maxTrees, "index entry count")
	if d.err != nil {
		return nil, d.fail("index header")
	}
	s := &index.Snapshot{Keys: keys, NextID: int(nextID)}
	for i := uint64(0); i < nEntries; i++ {
		id := d.count(math.MaxInt32, "index entry id")
		size := d.count(maxNodes, "index entry size")
		profLen := d.count(maxPostings, "index profile length")
		if d.err != nil {
			return nil, d.fail("index entry")
		}
		prof := make([]index.KeyCount, 0, capHint(profLen))
		for k := uint64(0); k < profLen; k++ {
			key := d.count(math.MaxInt32, "index key id")
			cnt := d.count(math.MaxInt32, "index key count")
			if d.err != nil {
				return nil, d.fail("index profile")
			}
			prof = append(prof, index.KeyCount{Key: int32(key), Count: int32(cnt)})
		}
		s.Entries = append(s.Entries, index.SnapshotEntry{ID: int(id), Size: int(size), Prof: prof})
	}
	return s, nil
}

func sortIDs(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
