package corpus_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	ted "repro"
	"repro/batch"
	"repro/corpus"
)

func buildCorpus(t *testing.T, opts ...corpus.Option) (*corpus.Corpus, []*ted.Tree) {
	t.Helper()
	trees := randomTrees(7, 14, 22)
	c := corpus.New(opts...)
	for _, tr := range trees {
		c.Add(tr)
	}
	// A mutation history, so tombstoned ids and ID gaps are part of what
	// round-trips.
	c.Delete(2)
	c.Replace(6, trees[0])
	return c, trees
}

func saveBytes(t *testing.T, c *corpus.Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestSaveLoadRoundTrip: a reloaded corpus holds identical trees under
// identical IDs, joins identically in every mode, and re-saves to the
// identical byte stream (the codec is deterministic).
func TestSaveLoadRoundTrip(t *testing.T) {
	c, _ := buildCorpus(t, corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2))
	data := saveBytes(t, c)

	c2, err := corpus.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("loaded %d trees, want %d", c2.Len(), c.Len())
	}
	if !c2.HasHistogramIndex() {
		t.Fatal("histogram index lost")
	}
	if q, ok := c2.HasPQGramIndex(); !ok || q != 2 {
		t.Fatalf("pq-gram index lost (q=%d ok=%v)", q, ok)
	}
	ids, ids2 := c.IDs(), c2.IDs()
	for i := range ids {
		if ids[i] != ids2[i] {
			t.Fatalf("IDs diverge: %v vs %v", ids, ids2)
		}
		a, _ := c.Tree(ids[i])
		b, _ := c2.Tree(ids[i])
		if a.String() != b.String() {
			t.Fatalf("tree %d differs after reload:\n%s\n%s", ids[i], a, b)
		}
	}
	// New Adds in the loaded corpus continue above every burned ID.
	tr, _ := c.Tree(ids[0])
	idA, idB := c.Add(tr), c2.Add(tr)
	if idA != idB {
		t.Fatalf("post-load Add assigned %d, original %d", idB, idA)
	}

	// Deterministic re-encode (after removing the extra tree again).
	c.Delete(idA)
	c2.Delete(idB)
	if !bytes.Equal(saveBytes(t, c), saveBytes(t, c2)) {
		t.Fatal("re-saved streams differ")
	}
}

// TestLoadJoinEquivalence is the acceptance pin: a corpus saved and
// reloaded in a fresh state joins bit-identically to the never-
// serialized corpus, across modes and thresholds.
func TestLoadJoinEquivalence(t *testing.T) {
	c, _ := buildCorpus(t, corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2))
	c2, err := corpus.Load(bytes.NewReader(saveBytes(t, c)))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	e, e2 := c.Engine(), c2.Engine()
	for _, tau := range []float64{0, 4, 11.5, math.Inf(1)} {
		for _, mode := range []batch.IndexMode{batch.IndexEnumerate, batch.IndexHistogram, batch.IndexPQGram} {
			ms, _ := c.Join(e, tau, batch.JoinOptions{Mode: mode})
			ms2, _ := c2.Join(e2, tau, batch.JoinOptions{Mode: mode})
			if len(ms) != len(ms2) {
				t.Fatalf("tau=%v mode=%v: %d vs %d matches", tau, mode, len(ms), len(ms2))
			}
			for k := range ms {
				if ms[k] != ms2[k] {
					t.Fatalf("tau=%v mode=%v: match %d = %+v vs %+v", tau, mode, k, ms[k], ms2[k])
				}
			}
		}
	}
}

// TestLoadErrorsNeverPanic feeds the decoder every truncation of a valid
// stream plus assorted corruptions; each must produce an error, not a
// panic and not a bogus corpus. After each Load the goroutine count must
// fall back to where it was: Load may not return before its builders
// exit.
func TestLoadErrorsNeverPanic(t *testing.T) {
	c, _ := buildCorpus(t, corpus.WithHistogramIndex())
	data := saveBytes(t, c)
	base := runtime.NumGoroutine()
	load := func(stream []byte) error {
		t.Helper()
		_, err := corpus.Load(bytes.NewReader(stream))
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines run after Load returned, %d before it", runtime.NumGoroutine(), base)
			}
		}
		return err
	}

	for cut := 0; cut < len(data); cut++ {
		if err := load(data[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	// The same contract for an index-less corpus: without index sections
	// the tree store is the final section, so a truncated last profile or
	// a torn "next id" must still surface the sticky decode error rather
	// than load as a smaller-but-plausible corpus.
	plain, _ := buildCorpus(t)
	plainData := saveBytes(t, plain)
	for cut := 0; cut < len(plainData); cut++ {
		if err := load(plainData[:cut]); err == nil {
			t.Fatalf("index-less truncation at %d bytes accepted", cut)
		}
	}
	// Trailing garbage.
	if err := load(append(append([]byte{}, data...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Bad magic / version / flags.
	for _, mut := range []struct {
		off int
		val byte
	}{{0, 'X'}, {4, 99}, {5, 0xFF}} {
		bad := append([]byte{}, data...)
		bad[mut.off] = mut.val
		if err := load(bad); err == nil {
			t.Fatalf("corruption at offset %d accepted", mut.off)
		}
	}
	// Single-byte corruptions must never panic (they may still decode —
	// e.g. a flipped bit inside a label — but most shift the framing).
	for off := 6; off < len(data); off += 7 {
		bad := append([]byte{}, data...)
		bad[off] ^= 0x55
		load(bad)
	}
	// SaveFile/LoadFile round trip.
	path := filepath.Join(t.TempDir(), "corpus.tedc")
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	c2, err := corpus.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("LoadFile returned %d trees, want %d", c2.Len(), c.Len())
	}
}

// TestSaveFileReplacesAtomically: SaveFile over an existing snapshot
// renames a new file into place instead of truncating the old one, so a
// crash or a write error mid-save cannot destroy the previous snapshot.
// The replaced path names a new inode, loads to the new contents, and
// no temp file is left beside it.
func TestSaveFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trees.tedc")
	c, _ := buildCorpus(t, corpus.WithHistogramIndex())
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("first SaveFile: %v", err)
	}
	old, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	c.Add(ted.MustParse("{n{e}{w}}"))
	if err := c.SaveFile(path); err != nil {
		t.Fatalf("second SaveFile: %v", err)
	}
	cur, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if os.SameFile(old, cur) {
		t.Fatalf("SaveFile rewrote the existing snapshot in place")
	}
	c2, err := corpus.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !bytes.Equal(saveBytes(t, c2), saveBytes(t, c)) {
		t.Fatalf("the replaced snapshot does not load to the new contents")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after SaveFile, want only the snapshot", len(entries))
	}
}

// withForests returns a copy of a version-3 stream, or of a version-4
// stream without a pq-gram index, in which the trees at the given stream
// positions claim no children at their roots, so their child counts
// describe a forest, with the tree store's checksum recomputed. Every
// root's child count must be a one-byte varint.
func withForests(t *testing.T, data []byte, at ...int) []byte {
	t.Helper()
	out := slices.Clone(data)
	off := 6 // magic, version, flags
	uv := func() uint64 {
		v, n := binary.Uvarint(out[off:])
		if n <= 0 {
			t.Fatalf("malformed varint at offset %d", off)
		}
		off += n
		return v
	}
	for range uv() {
		off += int(uv()) // a label's length, then its bytes
	}
	off += 4 // the label table's checksum
	start := off
	uv() // next id
	for pos := range int(uv()) {
		uv() // id
		n := int(uv())
		for range n {
			uv() // label id
		}
		for v := range n {
			root := off
			if kids := uv(); v == n-1 && slices.Contains(at, pos) {
				if kids == 0 || off != root+1 {
					t.Fatalf("tree %d: root has %d children, want a one-byte count above 0", pos, kids)
				}
				out[root] = 0
			}
		}
	}
	binary.LittleEndian.PutUint32(out[off:], crc32.ChecksumIEEE(out[start:off]))
	return out
}

// TestLoadReportsFirstForest: a stream whose trees at positions 3 and 6
// describe forests fails on the tree at 3, with the error a decoder that
// builds each tree in turn reports, also when the stream breaks again
// further on, in a later tree or after the tree store: in the index
// section of a version-3 stream, or in trailing data. Load builds trees
// on several goroutines, so a later failure may be found first.
func TestLoadReportsFirstForest(t *testing.T) {
	forest := func(c *corpus.Corpus, pos int) string {
		root, _ := c.Tree(c.IDs()[pos])
		return fmt.Sprintf("corpus: corrupt stream: tree: child counts describe a forest of %d trees, want 1",
			root.NumChildren(root.Root())+1)
	}
	c, _ := buildCorpus(t, corpus.WithHistogramIndex())
	data := saveBytes(t, c)
	v3, err := hex.DecodeString(v3GoldenHex)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"one forest", withForests(t, data, 3), forest(c, 3)},
		{"two forests", withForests(t, data, 3, 6), forest(c, 3)},
		{"forest then a truncated index", withForests(t, v3, 1)[:len(v3)-9], forest(loadHex(t, v3GoldenHex), 1)},
		{"forest then trailing data", append(withForests(t, data, 3, 6), 0), forest(c, 3)},
	} {
		if _, err := corpus.Load(bytes.NewReader(tc.stream)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Load error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSaveWritesUsedLabelsOnly: labels that only ad-hoc queries brought
// into the corpus's label table are not persisted, so a thousand
// queries with fresh labels leave a one-tree corpus's snapshot as it
// was, byte for byte.
func TestSaveWritesUsedLabelsOnly(t *testing.T) {
	c := corpus.New(corpus.WithHistogramIndex())
	c.Add(ted.MustParse("{a{b}{c}}"))
	before := saveBytes(t, c)
	e := c.Engine()
	for i := range 1000 {
		c.PrepareQuery(e, ted.MustParse(fmt.Sprintf("{q%d{r%d}}", i, i)))
	}
	if after := saveBytes(t, c); !bytes.Equal(after, before) {
		t.Fatalf("Save wrote %d bytes after the queries, %d before", len(after), len(before))
	}
}

// TestLoadThroughShortReads: a stream that arrives one byte at a time
// loads to the corpus a whole read gives. Its label ids and child counts
// run past 127, so they take two-byte varints, which then straddle every
// refill of the decoder's buffer.
func TestLoadThroughShortReads(t *testing.T) {
	c, _ := buildCorpus(t, corpus.WithHistogramIndex())
	wide := ted.NewNode("root")
	for i := range 150 {
		wide.Add(ted.NewNode(fmt.Sprintf("l%d", i), ted.NewNode(fmt.Sprintf("m%d", i))))
	}
	c.Add(ted.Build(wide))
	data := saveBytes(t, c)
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(data),
		"one byte": iotest.OneByteReader(bytes.NewReader(data)),
		"halves":   iotest.HalfReader(bytes.NewReader(data)),
	} {
		c2, err := corpus.Load(r)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if !bytes.Equal(saveBytes(t, c2), data) {
			t.Fatalf("%s: the loaded corpus re-saves to other bytes", name)
		}
	}
}
