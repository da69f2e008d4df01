package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/tree"
)

// The write-ahead log makes a corpus durable between Saves: every
// Add/Delete/Replace on a corpus opened with Open appends one record to
// a sidecar log (<snapshot path> + ".wal") before the mutation is
// acknowledged, and Open replays the log over the snapshot, so a crash
// loses at most the record being written when the process died.
//
// Log format, version 1. The header is "TEDW" | version u8; each record
// is
//
//	uvarint(len(body)) | body | crc32(body) as 4 little-endian bytes
//
// with body = op u8 (1 add, 2 delete, 3 replace) | uvarint id | payload.
// Add and replace carry the tree in the codec's postorder form, labels
// inline (uvarint n, n × length-prefixed label, n × uvarint child
// count); delete carries no payload. Labels are written inline rather
// than as label-table ids because the log must replay against a snapshot
// whose table predates the logged mutations.
//
// Replay applies records with absolute "set" semantics — add and replace
// both store the carried tree under the carried id (bumping the next-id
// watermark), delete removes whatever is there — which makes replay
// idempotent: if a crash lands between Checkpoint's snapshot rename and
// its log truncation, replaying the stale log over the new snapshot
// re-applies mutations the snapshot already contains and converges to
// the same corpus. Replay truncates a torn tail — the file ending
// mid-record is the debris a crash leaves — but fails loudly on a
// record whose bytes are all present and wrong, which under this log's
// write model can only be bit rot or tampering (the error-never-panic
// contract of the snapshot decoder extends to the log; pinned by
// FuzzWALReplay and the every-prefix/corruption tests in wal_test.go).
// One qualification: the length prefix itself is outside the record
// CRC, and a flip there that inflates the claimed length is
// indistinguishable from a genuinely torn tail (both read as "the file
// ends inside this record"), so those one-to-two bytes per record
// degrade to torn-tail truncation rather than a loud failure —
// detecting them would take a scan for intact records beyond the
// corruption point, which hostile inputs make quadratic.

const (
	walMagic   = "TEDW"
	walVersion = 1

	walHeaderLen = 5

	walOpAdd     = 1
	walOpDelete  = 2
	walOpReplace = 3
)

// errWALCorrupt marks a log Open must not touch: a header that is not a
// TEDW header at all (the file may not be ours — never truncate or
// append to it), or a record whose bytes are all present but invalid
// (bit rot; silently dropping the acknowledged records behind it would
// lose durable data). Crash debris — a torn tail, or a strict prefix of
// the header from a power failure during the very first Open — is not
// an error; absorbing it is the log's job.
var errWALCorrupt = errors.New("corpus: corrupt write-ahead log")

// wal is the append side of the log. Appends happen under the corpus
// mutation lock, so record order is exactly mutation order; the first
// append failure sticks and is surfaced by Sync, Checkpoint and Close.
// The wal's own mutex guards only the sticky error and the closed flag,
// so Sync can run its fsync without holding the corpus lock — a
// mutation acknowledgement flushing the disk must not stall every
// concurrent read.
type wal struct {
	f     *os.File
	buf   []byte // record body assembly buffer, reused across appends
	frame []byte // framed record buffer (length | body | crc), ditto

	mu     sync.Mutex
	err    error
	closed bool
}

func (w *wal) getErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *wal) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// fail records the first failure; later ones are symptoms of it.
func (w *wal) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// append writes one record and returns its body bytes (valid until the
// next append — the buffer is reused; callers that keep the body copy
// it). t is nil for deletes. Returns nil when the log is already failed.
func (w *wal) append(op byte, id ID, t *tree.Tree) []byte {
	if w.getErr() != nil {
		return nil
	}
	body := w.buf[:0]
	body = append(body, op)
	body = binary.AppendUvarint(body, uint64(id))
	if t != nil {
		body = appendTreePayload(body, t)
	}
	w.buf = body[:0]
	w.appendBody(body)
	return body
}

// appendBody frames and writes one already-assembled record body — the
// shared path for local mutations and replicated records, which must
// land on disk byte-identical to the primary's log.
func (w *wal) appendBody(body []byte) {
	if w.getErr() != nil {
		return
	}
	// The frame is assembled in a second reused buffer so the steady
	// state allocates nothing. One Write call, so a torn tail is a
	// single truncated suffix for replay to drop.
	rec := AppendWALFrame(w.frame[:0], body)
	w.frame = rec[:0]
	if _, err := w.f.Write(rec); err != nil {
		w.fail(fmt.Errorf("corpus: write-ahead log append: %w", err))
	}
}

func appendTreePayload(b []byte, t *tree.Tree) []byte {
	n := t.Len()
	b = binary.AppendUvarint(b, uint64(n))
	for v := 0; v < n; v++ {
		l := t.Label(v)
		b = binary.AppendUvarint(b, uint64(len(l)))
		b = append(b, l...)
	}
	for v := 0; v < n; v++ {
		b = binary.AppendUvarint(b, uint64(t.NumChildren(v)))
	}
	return b
}

// sync flushes the log to stable storage. The fsync itself runs outside
// any lock: fsyncing a file that is concurrently appended to is safe
// (the flush covers whatever had been written), and serializing it
// against mutations would reintroduce the stall sync exists to avoid.
func (w *wal) sync() error {
	if err := w.getErr(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.fail(fmt.Errorf("corpus: write-ahead log sync: %w", err))
	}
	return w.getErr()
}

// reset truncates the log back to its header — every logged mutation is
// now in the snapshot — and syncs, so the compaction is durable before
// Checkpoint returns.
func (w *wal) reset() error {
	if err := w.getErr(); err != nil {
		return err
	}
	if err := w.f.Truncate(walHeaderLen); err != nil {
		w.fail(fmt.Errorf("corpus: write-ahead log truncate: %w", err))
		return w.getErr()
	}
	if _, err := w.f.Seek(walHeaderLen, io.SeekStart); err != nil {
		w.fail(fmt.Errorf("corpus: write-ahead log seek: %w", err))
		return w.getErr()
	}
	return w.sync()
}

// Open loads the corpus persisted at path and attaches a write-ahead
// log at path+".wal": the log is replayed over the snapshot (recovering
// every mutation acknowledged since the last Save/Checkpoint, dropping a
// torn tail), and from then on every Add, Delete and Replace is appended
// to the log before it returns. A missing snapshot starts an empty
// corpus with opts (so the first Open of a path needs the index options;
// later Opens take the configuration from the snapshot, and opts add any
// maintained index the snapshot lacks, built from the stored trees).
//
// Durability: records reach the OS when the mutation returns and the
// disk on Sync, Checkpoint or Close — a process crash between Saves
// loses nothing acknowledged. Power failure is weaker: everything up to
// the last Sync is safe, but the unsynced suffix may persist partially
// and in any page order, and if that leaves a record mid-log with
// intact bytes and a bad CRC, the next Open fails loudly (see
// replayRecords) rather than guessing which records were real —
// recovering then means truncating the .wal at the reported offset by
// hand. Callers that must survive power loss unattended should Sync at
// their acknowledgement points, as the HTTP server does. Checkpoint
// folds the log into a
// fresh snapshot and truncates it. The log is single-writer, and the
// contract is enforced: the log file carries an exclusive flock (on
// unix), so a second Open of a live corpus fails fast instead of
// interleaving records; the kernel drops the lock with the crashed
// process's descriptors, so recovery is never blocked.
func Open(path string, opts ...Option) (*Corpus, error) {
	var c *Corpus
	switch _, err := os.Stat(path); {
	case err == nil:
		if c, err = LoadFile(path); err != nil {
			return nil, err
		}
		// Build what opts ask for beyond the snapshot's indexes, so
		// Open(path, WithHistogramIndex()) means the same thing whether
		// or not the snapshot already existed.
		c.maintain(opts)
	case errors.Is(err, fs.ErrNotExist):
		c = New(opts...)
	default:
		return nil, err
	}
	// O_APPEND: every record write lands at the file's current end no
	// matter what happened to the offset, so even a mis-use that slips
	// past the lock appends rather than overwrites.
	f, err := os.OpenFile(path+".wal", os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockWAL(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := c.recoverWAL(f); err != nil {
		f.Close()
		return nil, err
	}
	c.mu.Lock()
	c.wal = &wal{f: f}
	c.snapPath = path
	c.mu.Unlock()
	return c, nil
}

// recoverWAL replays the log in f over the corpus and leaves f
// positioned (and truncated) at the end of the last intact record.
func (c *Corpus) recoverWAL(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	fullHeader := append([]byte(walMagic), walVersion)
	if size < walHeaderLen {
		// Empty, or shorter than a header. A strict prefix of our own
		// header is debris from a power failure during the very first
		// Open's header write — nothing acknowledged can predate a
		// complete header, so rewriting it loses nothing. Anything else
		// is not our file; refuse rather than clobber it.
		head := make([]byte, size)
		if _, err := io.ReadFull(f, head); err != nil {
			return err
		}
		if !bytes.HasPrefix(fullHeader, head) {
			return fmt.Errorf("%w: bad header (not a %q file)", errWALCorrupt, walMagic)
		}
		if err := f.Truncate(0); err != nil {
			return err
		}
		// Write the header now so a crash before the first mutation
		// still leaves a well-formed file — and make the file's
		// directory entry itself durable, or a power failure could drop
		// the whole log (acknowledged, fsynced records included) by
		// losing the file, not its contents.
		if _, err := f.Write(fullHeader); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		return syncDir(filepath.Dir(f.Name()))
	}
	head := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(f, head); err != nil || string(head[:4]) != walMagic {
		return fmt.Errorf("%w: bad header (not a %q file)", errWALCorrupt, walMagic)
	}
	if head[4] != walVersion {
		return fmt.Errorf("corpus: write-ahead log version %d not supported (want %d)", head[4], walVersion)
	}
	good, err := c.replayRecords(f, size)
	if err != nil {
		return err
	}
	if good < size {
		if err := f.Truncate(good); err != nil {
			return err
		}
	}
	_, err = f.Seek(good, io.SeekStart)
	return err
}

// replayRecords applies intact records and returns the file offset just
// past the last one. A *torn* tail — the file ends before the final
// record's claimed bytes — is the expected crash debris and is
// truncated away. A record whose bytes are all present but whose CRC or
// structure is wrong is something else entirely: under the log's write
// model (single writer, one Write per record, O_APPEND,
// acknowledge-after-write) a process crash can only shorten the final
// record, so a fully-present-but-invalid record proves bit rot,
// tampering, or out-of-order page loss from a power failure on an
// un-Synced suffix — and replay fails loudly rather than silently
// discarding acknowledged mutations, the same stance the snapshot
// codec's checksums take. The cost of that stance is that the
// power-failure case may need an operator to truncate the log at the
// offset named in the error; the alternative — guessing — risks
// resurrecting a corpus missing acknowledged writes with no error at
// all. Malformed input errors — it never panics and never allocates
// more than the file's actual bytes can back.
func (c *Corpus) replayRecords(f *os.File, size int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	br := bufio.NewReader(io.NewSectionReader(f, walHeaderLen, size-walHeaderLen))
	good := int64(walHeaderLen)
	for {
		n, err := c.replayOne(br, size-good)
		if err == errWALTorn {
			return good, nil
		}
		if err != nil {
			return good, fmt.Errorf("%w: record at offset %d: %v", errWALCorrupt, good, err)
		}
		if n == 0 {
			return good, nil // clean end of log
		}
		good += n
	}
}

// errWALTorn marks a record the file simply ends inside — recoverable
// crash debris, as opposed to in-place corruption.
var errWALTorn = errors.New("torn record")

// replayOne decodes and applies a single record, returning the bytes
// consumed: 0 at the clean end of the log, errWALTorn where the file
// ends mid-record, any other error for corruption in fully-present
// bytes.
func (c *Corpus) replayOne(br *bufio.Reader, remaining int64) (int64, error) {
	lenBytes := int64(0)
	bodyLen64, err := binary.ReadUvarint(lengthCounter{br, &lenBytes})
	if err != nil {
		if err == io.EOF && lenBytes == 0 {
			return 0, nil // clean end of log
		}
		return 0, errWALTorn // length varint cut short
	}
	// Guard without adding to bodyLen64: a near-2^64 length claim must
	// not wrap past the bound and reach the slice make below as a
	// negative int64.
	if remaining < 4 || bodyLen64 > uint64(remaining-4) {
		return 0, errWALTorn // claims more bytes than the file holds
	}
	bodyLen := int64(bodyLen64)
	rec := make([]byte, bodyLen+4)
	if _, err := io.ReadFull(br, rec); err != nil {
		return 0, errWALTorn
	}
	body, stored := rec[:bodyLen], binary.LittleEndian.Uint32(rec[bodyLen:])
	if crc32.ChecksumIEEE(body) != stored {
		return 0, errors.New("checksum mismatch")
	}
	if !c.applyRecord(body) {
		return 0, errors.New("invalid record body")
	}
	// Replayed records seed the replication buffer: a follower that
	// checkpoint-ships right after this Open must be able to tail from
	// the snapshot base, and base + replayed + live is this generation's
	// whole history.
	c.replAppendLocked(body)
	return lenBytes + bodyLen + 4, nil
}

// lengthCounter counts the bytes a varint read consumes.
type lengthCounter struct {
	br *bufio.Reader
	n  *int64
}

func (lc lengthCounter) ReadByte() (byte, error) {
	b, err := lc.br.ReadByte()
	if err == nil {
		*lc.n++
	}
	return b, err
}

// applyRecord decodes one record body and applies it with set semantics.
// Callers hold c.mu. A structurally invalid body reports false, stopping
// replay at the previous record.
func (c *Corpus) applyRecord(body []byte) bool {
	if len(body) == 0 {
		return false
	}
	op := body[0]
	r := bytes.NewReader(body[1:])
	id64, err := binary.ReadUvarint(r)
	if err != nil || id64 > math.MaxInt32 {
		return false
	}
	id := ID(id64)
	switch op {
	case walOpDelete:
		if r.Len() != 0 {
			return false
		}
		if _, ok := c.entries[id]; ok {
			delete(c.entries, id)
			if c.hist != nil {
				c.hist.Delete(int(id))
			}
			if c.pq != nil {
				c.pq.Delete(int(id))
			}
		}
		if id >= c.next {
			c.next = id + 1
		}
		return true
	case walOpAdd, walOpReplace:
		t, ok := decodeTreePayload(r)
		if !ok || r.Len() != 0 {
			return false
		}
		t = t.Relabel(c.labels)
		c.entries[id] = &entry{t: t}
		c.indexPut(id, t)
		if id >= c.next {
			c.next = id + 1
		}
		return true
	}
	return false
}

// decodeTreePayload reads the inline postorder form. Bounds mirror the
// snapshot decoder's: counts are checked against what the record's own
// bytes can back before anything is allocated.
func decodeTreePayload(r *bytes.Reader) (*tree.Tree, bool) {
	n64, err := binary.ReadUvarint(r)
	if err != nil || n64 == 0 || n64 > maxNodes || n64 > uint64(r.Len()) {
		return nil, false
	}
	n := int(n64)
	labels := make([]string, 0, n)
	for v := 0; v < n; v++ {
		l64, err := binary.ReadUvarint(r)
		if err != nil || l64 > maxLabelLen || l64 > uint64(r.Len()) {
			return nil, false
		}
		raw := make([]byte, l64)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, false
		}
		labels = append(labels, string(raw))
	}
	counts := make([]int, 0, n)
	for v := 0; v < n; v++ {
		k, err := binary.ReadUvarint(r)
		if err != nil || k >= uint64(n) {
			return nil, false
		}
		counts = append(counts, int(k))
	}
	t, err := tree.FromPostorder(tree.PostorderForm{Labels: labels, ChildCounts: counts})
	if err != nil {
		return nil, false
	}
	return t, true
}

// Sync flushes the write-ahead log to stable storage and reports the
// first logging failure since the last Sync-point, so callers that must
// not acknowledge a mutation on a broken log (a server handler, a batch
// importer) have one call to check. A corpus without a log returns nil.
// The flush runs outside the corpus lock: acknowledging one mutation
// must not stall concurrent reads or joins for a disk round trip.
func (c *Corpus) Sync() error {
	c.mu.RLock()
	w := c.wal
	c.mu.RUnlock()
	if w == nil {
		return nil
	}
	return w.sync()
}

// LogPending reports whether the write-ahead log holds records not yet
// folded into a snapshot — the signal a periodic-compaction loop (like
// cmd/tedd's) checks before paying for a Checkpoint. False for corpora
// without a log, or after Close.
func (c *Corpus) LogPending() bool {
	c.mu.RLock()
	w := c.wal
	c.mu.RUnlock()
	if w == nil || w.isClosed() {
		return false
	}
	st, err := w.f.Stat()
	return err == nil && st.Size() > walHeaderLen
}

// Checkpoint folds the log into the snapshot: the corpus is written to
// its Open path (atomically, with WriteFileAtomic) and the log truncated
// back to empty. The CPU-bound snapshot encode runs under the corpus
// lock (it reads the store), but the expensive part — writing, fsyncing
// and renaming the new snapshot — runs *outside* it, so a checkpoint's
// disk time does not stall every concurrent read and mutation. The log
// is truncated only if no mutation landed during the flush; otherwise
// the encode is retried, and after a few rounds of losing that race the
// whole checkpoint runs under the lock. After a crash anywhere inside
// Checkpoint, Open recovers a consistent corpus: the old or the new
// snapshot with the full log, whose replay is idempotent, or the new
// snapshot with an empty log.
func (c *Corpus) Checkpoint() error {
	// One checkpoint at a time; concurrent callers queue rather than
	// racing each other's temp files and renames.
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.wal == nil {
			c.mu.Unlock()
			return errors.New("corpus: Checkpoint needs a corpus opened with Open")
		}
		if err := c.wal.getErr(); err != nil {
			c.mu.Unlock()
			return err
		}
		var buf bytes.Buffer
		if err := c.saveLocked(&buf); err != nil {
			c.mu.Unlock()
			return err
		}
		seq := c.mutSeq
		locked := attempt >= 2 // stop yielding: flush under the lock
		if !locked {
			c.mu.Unlock()
		}
		err := WriteFileAtomic(c.snapPath, buf.Bytes())
		if !locked {
			c.mu.Lock()
		}
		if err != nil {
			c.mu.Unlock()
			return err
		}
		if c.mutSeq != seq {
			// A mutation landed while the snapshot was flushing: the
			// snapshot lacks it, so truncating the log would drop it.
			// Re-encode.
			c.mu.Unlock()
			continue
		}
		// The snapshot holds everything the log recorded, and c.mu keeps
		// it that way until the log is empty.
		err = c.wal.reset()
		if err == nil {
			// The log generation ends here: records folded into the
			// snapshot leave the replication buffer, and followers
			// identify their position by (generation, index) — see
			// repl.go.
			c.rotateReplLocked()
		}
		c.mu.Unlock()
		return err
	}
}

// WriteFileAtomic replaces the file at path with data so that a crash
// or an I/O error at any point leaves either the old file or the new
// one, never a torn mix: data goes to a temp file beside path, which is
// fsynced, renamed over path, and made durable by an fsync of the
// directory. A symlink at path is replaced, not followed. Snapshots are
// written this way (SaveFile, Checkpoint), and so is a follower's
// shipped checkpoint. Concurrent calls for one path must be serialized
// by the caller, since they share the temp file.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Without a directory fsync a power failure could lose the rename
	// while keeping what the caller does next, such as a log truncation
	// that assumes the new snapshot is in place.
	return syncDir(filepath.Dir(path))
}

// writeFileSync writes data to path (created or truncated) and fsyncs
// it.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close syncs and closes the write-ahead log. The corpus remains usable
// in memory, but further mutations are no longer logged (they set the
// sticky log error instead); Close a corpus only when done with it.
// Closing a corpus that has no log, or closing twice, is a no-op — a
// "defer Close + explicit Close" shutdown reports a clean exit.
func (c *Corpus) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.wal
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.err
	w.mu.Unlock()
	if err == nil {
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("corpus: write-ahead log sync: %w", serr)
		}
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	w.fail(errors.New("corpus: write-ahead log closed"))
	return err
}

// logMutation appends one record for an applied mutation. Callers hold
// c.mu; a corpus without a log only bumps the mutation sequence.
func (c *Corpus) logMutation(op byte, id ID, t *tree.Tree) {
	c.mutSeq++
	if c.wal != nil {
		if body := c.wal.append(op, id, t); body != nil {
			c.replAppendLocked(body)
		}
	}
}
