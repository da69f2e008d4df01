package corpus_test

import (
	"bytes"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
)

// v1GoldenHex is a version-1 stream written before the v2 checksum
// upgrade (corpus: Add {a{b}{c}}, {a{b}}, {x{y{z}}}; Delete(1);
// Replace(2, {q{r}}); histogram index maintained). It pins that the
// decoder keeps accepting checksum-less v1 files byte for byte.
const v1GoldenHex = "54454443010108016201630161017a017901780172017103020003000102000002000100010104010104010104010302010001010103030100010100020102000001020206070001000001020102010201020701060102080700010700000108016201630161017a0179017801720171030200030300010101020102020206010701"

func v1GoldenCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	raw, err := hex.DecodeString(v1GoldenHex)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	c, err := corpus.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v1 stream no longer loads: %v", err)
	}
	return c
}

func TestCodecV1BackwardCompat(t *testing.T) {
	c := v1GoldenCorpus(t)
	want := map[corpus.ID]string{0: "{a{b}{c}}", 2: "{q{r}}"}
	if got := c.IDs(); len(got) != len(want) {
		t.Fatalf("v1 corpus has ids %v, want %d trees", got, len(want))
	}
	for id, s := range want {
		tr, ok := c.Tree(id)
		if !ok || tr.String() != s {
			t.Fatalf("tree %d = %v, want %s", id, tr, s)
		}
	}
	if !c.HasHistogramIndex() {
		t.Fatalf("v1 corpus lost its histogram index")
	}
	// The loaded corpus must be fully operational: join it, then re-save
	// (now as v2 with checksums) and verify the round trip.
	e := c.Engine()
	ms, _ := c.Join(e, math.Inf(1), batch.JoinOptions{})
	if len(ms) != 1 {
		t.Fatalf("v1 corpus join found %d matches, want 1", len(ms))
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	if got := buf.Bytes()[4]; got != 2 {
		t.Fatalf("re-save wrote version %d, want 2", got)
	}
	if buf.Bytes()[5]&(1<<2) == 0 {
		t.Fatalf("re-save did not set the checksum flag (flags %#x)", buf.Bytes()[5])
	}
	c2, err := corpus.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v2 re-load: %v", err)
	}
	for id, s := range want {
		if tr, ok := c2.Tree(id); !ok || tr.String() != s {
			t.Fatalf("v2 round trip lost tree %d", id)
		}
	}
}

// TestCodecV1EncoderAgreesWithGolden guards the fixture itself: the
// legacy encoder (kept for this test) must still reproduce the golden
// bytes, so a drift in either encoder or fixture is caught, not papered
// over.
func TestCodecV1EncoderAgreesWithGolden(t *testing.T) {
	c := corpus.New(corpus.WithHistogramIndex())
	for _, s := range []string{"{a{b}{c}}", "{a{b}}", "{x{y{z}}}"} {
		c.Add(ted.MustParse(s))
	}
	c.Delete(1)
	c.Replace(2, ted.MustParse("{q{r}}"))
	var buf bytes.Buffer
	if err := c.SaveV1(&buf); err != nil {
		t.Fatalf("SaveV1: %v", err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != v1GoldenHex {
		t.Fatalf("v1 encoder output drifted from the golden stream:\n got %s\nwant %s", got, v1GoldenHex)
	}
}

// v1OneTree assembles the version-1 stream of a one-tree corpus,
// {a{b}{c}} with labels interned b, c, a, from the parts a tamper can
// replace: the tree's mirror-leafmost array, its decomposition
// cardinalities, its profile and an optional pq-gram index section.
func v1OneTree(lfm, decomp, profile, pqgram string) string {
	flags := "00"
	if pqgram != "" {
		flags = "02"
	}
	return "54454443" + "01" + flags + "03016201630161" + // magic, version, flags; labels b, c, a
		"01" + "01" + "00" + "03" + "000102" + "000002" + // next id, 1 tree: id 0, 3 nodes, label ids, child counts
		lfm + decomp + profile + pqgram
}

// The untampered parts of v1OneTree. The mirror-leafmost array is
// 0 1 0; the decomposition cardinalities A, FL and FR are each 1 1 4.
// The profile is flag 01, three label pairs (id, count) in label order
// a, b, c — 03 0201 0001 0101 — and three branch entries (label, first
// child, next sibling as id + 1, 0 for none; count) — 03 03010001
// 01000201 02000001. The pq-gram section is p 01, q 02, five gram keys,
// next id 1 and one entry (id 0, size 3, each of the five grams once).
const (
	v1Lfm      = "000100"
	v1Decomp   = "010104" + "010104" + "010104"
	v1Labels   = "03" + "0201" + "0001" + "0101"
	v1Branches = "03" + "03010001" + "01000201" + "02000001"
	v1Profile  = "01" + v1Labels + v1Branches
	v1PQGrams  = "05" + "06611f2a1f621f" + "06611f621f631f" + "06611f631f2a1f" + "06621f2a1f2a1f" + "06631f2a1f2a1f" +
		"01" + "01" + "00" + "03" + "05" + "0001" + "0101" + "0201" + "0301" + "0401"
)

// v1TamperedStreams returns v1OneTree streams with one stored artifact
// tampered so that it no longer describes the tree, keyed by the name the
// Load error must carry. Version 1 carries no checksums, so only the
// decoder's checks of the artifacts against the tree stand between these
// streams and wrong answers.
func v1TamperedStreams(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte)
	for name, stream := range map[string]string{
		// {a:2, b:1}: the histogram of {a{b}{a}}, which prices the tree's
		// exact copy one rename away.
		"label histogram": v1OneTree(v1Lfm, v1Decomp, "01"+"02"+"0202"+"0001"+v1Branches, ""),
		// b's next sibling a instead of c.
		"branch histogram": v1OneTree(v1Lfm, v1Decomp, "01"+v1Labels+"03"+"03010001"+"01000301"+"02000001", ""),
		// Zeroed: ΔR would read the rightmost leaf of the subtree b as c.
		"mirror-leafmost": v1OneTree("000000", v1Decomp, v1Profile, ""),
		// |A| of the root 0 instead of 4: the strategy DP would price the
		// root's ΔI subproblems at zero.
		"decomposition": v1OneTree(v1Lfm, "010100"+"010104"+"010104", v1Profile, ""),
		// Stem length 2: the index would miss true matches.
		"pq-gram parameters": v1OneTree(v1Lfm, v1Decomp, v1Profile, "0202"+v1PQGrams),
	} {
		raw, err := hex.DecodeString(stream)
		if err != nil {
			tb.Fatalf("%s: bad hex: %v", name, err)
		}
		out[name] = raw
	}
	return out
}

// TestCodecV1RejectsArtifactMismatch: every stored artifact must describe
// its tree. The untampered streams load and match their own tree at
// distance 0, by bounds and by pq-gram candidates; each tampered stream
// fails Load as corrupt instead of loading a tree whose artifacts would
// crash a distance run, answer wrongly, or prune that match.
func TestCodecV1RejectsArtifactMismatch(t *testing.T) {
	for _, pqgram := range []string{"", "0102" + v1PQGrams} {
		raw, err := hex.DecodeString(v1OneTree(v1Lfm, v1Decomp, v1Profile, pqgram))
		if err != nil {
			t.Fatalf("bad fixture hex: %v", err)
		}
		c, err := corpus.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("untampered stream: %v", err)
		}
		e := c.Engine()
		q := c.PrepareQuery(e, ted.MustParse("{a{b}{c}}"))
		stored, _ := c.Prepared(e, 0)
		if d, ok := e.DistanceBounded(q, stored, 0); !ok || d != 0 {
			t.Fatalf("untampered stream: DistanceBounded = (%v, %v), want (0, true)", d, ok)
		}
		if pqgram != "" {
			c.Add(ted.MustParse("{a{b}{c}}"))
			if ms, _ := c.Join(e, 1, batch.JoinOptions{Mode: batch.IndexPQGram}); len(ms) != 1 {
				t.Fatalf("untampered pq-gram stream: join of the tree and its copy found %d matches, want 1", len(ms))
			}
		}
	}
	for name, bad := range v1TamperedStreams(t) {
		_, err := corpus.Load(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), name) {
			t.Errorf("%s tampered: Load error %v, want a corrupt-stream error naming the %s", name, err, name)
		}
	}
}

// TestCodecChecksumDetectsCorruption flips every byte of a v2 stream in
// turn; each flip must fail Load. Single-byte errors inside a section
// are guaranteed by CRC32, the header bytes by the magic/version/flag
// checks, and the stored checksum bytes by the mismatch they create.
func TestCodecChecksumDetectsCorruption(t *testing.T) {
	for name, opts := range map[string][]corpus.Option{
		"indexed":   {corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2)},
		"indexless": nil,
	} {
		t.Run(name, func(t *testing.T) {
			c := corpus.New(opts...)
			for _, s := range []string{"{a{b}{c}}", "{a{b}}", "{x{y{z}}}", "{a}"} {
				c.Add(ted.MustParse(s))
			}
			var buf bytes.Buffer
			if err := c.Save(&buf); err != nil {
				t.Fatalf("save: %v", err)
			}
			blob := buf.Bytes()
			for i := range blob {
				bad := append([]byte(nil), blob...)
				bad[i] ^= 0xFF
				if _, err := corpus.Load(bytes.NewReader(bad)); err == nil {
					t.Fatalf("flipping byte %d of %d went undetected", i, len(blob))
				}
			}
		})
	}
}
