package corpus

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Replication. A primary ships its write-ahead log to followers as a
// stream of record bodies in the on-disk framing (see wal.go); a
// follower applies each body with ApplyReplicated, which reuses the
// log's idempotent set-semantics replay and appends the identical bytes
// to the follower's own log — so a follower is itself durable, can be
// promoted, and converges to a byte-identical store.
//
// Positions are (generation, index). A generation is one lifetime of
// the log between truncations: it begins at Open (covering replayed
// records) and ends when Checkpoint folds the log into the snapshot.
// The corpus keeps the current generation's record bodies in memory —
// bounded by the same compaction policy that bounds the log file — and
// remembers the (generation, count) the last checkpoint retired, so a
// follower that was fully caught up resumes cleanly across the
// truncation. A follower whose position matches neither is behind a
// truncation it never saw; its records are gone from memory and only
// exist folded into the snapshot, so it must re-ship a checkpoint
// (SnapshotBytes) and tail from the position the snapshot captures.
//
// Generation ids are random, never reused, so a primary restart or a
// divergent follower can never be mistaken for a valid resume point.

// ReplPos is a replication stream position: the index of the next
// record to read within a log generation.
type ReplPos struct {
	Gen string
	Seq int
}

// errReplApply marks a replicated record body the corpus refused.
var errReplApply = errors.New("corpus: invalid replicated record")

func newReplGen() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("corpus: no entropy for replication generation: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// ensureReplLocked lazily initializes the generation id and broadcast
// channel. Callers hold c.mu (read lock is not enough).
func (c *Corpus) ensureReplLocked() {
	if c.replGen == "" {
		c.replGen = newReplGen()
		c.replCh = make(chan struct{})
	}
}

// replAppendLocked copies one record body into the current generation's
// buffer and wakes tailing streams. Callers hold c.mu.
func (c *Corpus) replAppendLocked(body []byte) {
	c.ensureReplLocked()
	c.replRecs = append(c.replRecs, append([]byte(nil), body...))
	close(c.replCh)
	c.replCh = make(chan struct{})
}

// rotateReplLocked retires the current generation after a checkpoint:
// its records are in the snapshot now. Callers hold c.mu.
func (c *Corpus) rotateReplLocked() {
	c.ensureReplLocked()
	c.prevGen, c.prevCount = c.replGen, len(c.replRecs)
	c.replGen, c.replRecs = newReplGen(), nil
	close(c.replCh)
	c.replCh = make(chan struct{})
}

// Replicable reports whether this corpus can feed followers: only a
// corpus opened with Open keeps the replication buffer (the in-memory
// mirror of its write-ahead log).
func (c *Corpus) Replicable() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.wal != nil
}

// ReplState returns the current replication position: the generation id
// and the number of records it holds. A follower that has applied
// everything up to this position is exactly caught up.
func (c *Corpus) ReplState() ReplPos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureReplLocked()
	return ReplPos{Gen: c.replGen, Seq: len(c.replRecs)}
}

// ReplCheck validates a follower's resume position. It returns the
// position streaming should continue from and true when the position is
// live: either inside the current generation, or exactly at the end of
// the generation the last checkpoint retired (the caught-up follower's
// view of a truncation it hasn't heard about yet — it resumes at the
// new generation's start). Anything else — an unknown generation, or an
// index the truncation left behind — returns false: those records are
// gone from memory, and the follower must re-ship a checkpoint.
func (c *Corpus) ReplCheck(pos ReplPos) (ReplPos, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureReplLocked()
	switch {
	case pos.Gen == c.replGen && pos.Seq <= len(c.replRecs):
		return pos, true
	case pos.Gen == c.prevGen && pos.Gen != "" && pos.Seq == c.prevCount:
		return ReplPos{Gen: c.replGen, Seq: 0}, true
	}
	return ReplPos{}, false
}

// ReplRecords returns up to max record bodies starting at pos.Seq, with
// the position one past the last returned record. ok is false under the
// same conditions as ReplCheck. The returned bodies are immutable;
// callers must not modify them.
func (c *Corpus) ReplRecords(pos ReplPos, max int) (recs [][]byte, next ReplPos, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureReplLocked()
	if pos.Gen == c.prevGen && pos.Gen != "" && pos.Seq == c.prevCount {
		pos = ReplPos{Gen: c.replGen, Seq: 0}
	}
	if pos.Gen != c.replGen || pos.Seq > len(c.replRecs) {
		return nil, ReplPos{}, false
	}
	end := len(c.replRecs)
	if max > 0 && pos.Seq+max < end {
		end = pos.Seq + max
	}
	return c.replRecs[pos.Seq:end], ReplPos{Gen: c.replGen, Seq: end}, true
}

// ReplWait blocks until the corpus moves past pos — new records in
// pos.Gen, a generation change, or ctx done. It returns immediately if
// pos is already behind.
func (c *Corpus) ReplWait(ctx context.Context, pos ReplPos) {
	for {
		c.mu.Lock()
		c.ensureReplLocked()
		ch := c.replCh
		moved := c.replGen != pos.Gen || len(c.replRecs) > pos.Seq
		c.mu.Unlock()
		if moved {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-ch:
		}
	}
}

// SnapshotBytes encodes the corpus in the snapshot codec and returns
// the bytes together with the replication position they capture: a
// follower that restores exactly these bytes may tail the log from that
// position. This is the checkpoint-shipping primitive — the encode runs
// under the store lock so bytes and position are one atomic cut.
func (c *Corpus) SnapshotBytes() ([]byte, ReplPos, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureReplLocked()
	var buf bytes.Buffer
	if err := c.saveLocked(&buf); err != nil {
		return nil, ReplPos{}, err
	}
	return buf.Bytes(), ReplPos{Gen: c.replGen, Seq: len(c.replRecs)}, nil
}

// ApplyReplicated applies one replicated record body — as framed on a
// primary's log stream — with the log's set-semantics replay, and
// appends the identical bytes to this corpus's own write-ahead log. A
// structurally invalid body is an error and changes nothing.
func (c *Corpus) ApplyReplicated(body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.applyRecord(body) {
		return errReplApply
	}
	c.mutSeq++
	if c.wal != nil {
		c.wal.appendBody(body)
		c.replAppendLocked(body)
		return c.wal.getErr()
	}
	return nil
}

// --- wire framing -----------------------------------------------------
//
// The replication stream reuses the log's on-disk record framing
// (uvarint length | body | crc32), so a follower verifies the same
// checksum the primary's disk carries and a flipped byte anywhere in
// transit is caught before apply. One extra body form exists only on
// the wire: a progress frame, op 0, carrying the primary's current
// position — it lets an idle stream prove liveness and a follower
// measure its lag without any mutation traffic.

// maxReplBody bounds a wire frame's claimed length before any
// allocation; it comfortably exceeds the largest legal record body
// (maxNodes nodes with labels) without letting a hostile length prefix
// allocate unbounded memory.
const maxReplBody = 1 << 28

// AppendWALFrame appends the wire framing of one record body to dst.
func AppendWALFrame(dst, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(dst, crc[:]...)
}

// ReadWALFrame reads one framed record from br and returns its body
// with the checksum verified. io.EOF at a frame boundary is returned as
// is; a frame cut short anywhere else surfaces as
// io.ErrUnexpectedEOF, and a checksum or length-bound violation as an
// error — callers distinguish a cleanly closed stream from a damaged
// one.
func ReadWALFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	if n > maxReplBody {
		return nil, fmt.Errorf("corpus: replication frame claims %d bytes", n)
	}
	rec := make([]byte, n+4)
	if _, err := io.ReadFull(br, rec); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	body := rec[:n]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rec[n:]) {
		return nil, errors.New("corpus: replication frame checksum mismatch")
	}
	return body, nil
}

// ProgressBody encodes a progress frame body for pos: op 0 followed by
// the record index. The generation travels out of band (it is fixed per
// stream), so the frame is a few bytes.
func ProgressBody(seq int) []byte {
	b := []byte{0}
	return binary.AppendUvarint(b, uint64(seq))
}

// DecodeProgress reports whether body is a progress frame and, if so,
// the position it carries.
func DecodeProgress(body []byte) (seq int, ok bool) {
	if len(body) == 0 || body[0] != 0 {
		return 0, false
	}
	v, n := binary.Uvarint(body[1:])
	if n <= 0 || n != len(body)-1 || v > 1<<62 {
		return 0, false
	}
	return int(v), true
}
