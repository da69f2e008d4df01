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

// v1OneTreeHex is the version-1 stream of a one-tree corpus, {a{b}{c}}
// with labels interned b, c, a and no index. It ends in the tree's
// profile: flag 01, three label pairs (id, count) in label order a, b, c
// — 03 0201 0001 0101 — and three branch entries (label, first child,
// next sibling as id + 1, 0 for none; count) — 03 03010001 01000201
// 02000001.
const v1OneTreeHex = "5445444301000301620163016101010003000102000002000100010104010104010104010302010001010103030100010100020102000001"

// v1ProfileMismatchStreams returns v1OneTreeHex with the stored profile
// tampered so that it no longer describes the tree. Version 1 carries no
// checksums, so only the decoder's check of the histograms against the
// tree stands between these streams and wrong bounds.
func v1ProfileMismatchStreams(tb testing.TB) map[string][]byte {
	tb.Helper()
	const labels, branches = "03020100010101", "03030100010100020102000001"
	head, ok := strings.CutSuffix(v1OneTreeHex, "01"+labels+branches)
	if !ok {
		tb.Fatalf("v1OneTreeHex does not end in the documented profile")
	}
	out := make(map[string][]byte)
	for name, profile := range map[string]string{
		// {a:2, b:1}: the histogram of {a{b}{a}}, which prices the tree's
		// exact copy one rename away.
		"label histogram": "02" + "0202" + "0001" + branches,
		// b's next sibling a instead of c.
		"branch histogram": labels + "03" + "03010001" + "01000301" + "02000001",
	} {
		raw, err := hex.DecodeString(head + "01" + profile)
		if err != nil {
			tb.Fatalf("%s: bad hex: %v", name, err)
		}
		out[name] = raw
	}
	return out
}

// TestCodecV1RejectsProfileMismatch: a stored profile must describe its
// tree. The untampered stream loads and matches its own tree at distance
// 0; each tampered stream fails Load as corrupt instead of loading a
// tree whose bounds would prune that match.
func TestCodecV1RejectsProfileMismatch(t *testing.T) {
	raw, err := hex.DecodeString(v1OneTreeHex)
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
	for name, bad := range v1ProfileMismatchStreams(t) {
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
