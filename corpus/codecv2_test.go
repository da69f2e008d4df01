package corpus_test

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
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

// v2GoldenHex is a version-2 stream, the last format that stored each
// tree's mirror-leafmost array, decomposition cardinalities and bound
// profile: the history of v1GoldenHex with both indexes maintained
// (histogram and pq-gram, q = 2).
const v2GoldenHex = "54454443020708016201630161017a0179017801720171b9eddda3030200030001020000020001000101040101040101040103020100010101030301000101000201020000010202060700010000010201020102010207010601020807000107000001ea1a127508016201630161017a01790178017201710302000303000101010201020202060107011e8bfb6b01020e06611f2a1f621f06611f621f631f06611f631f2a1f06621f2a1f2a1f06631f2a1f2a1f06611f621f2a1f06781f2a1f791f06781f791f2a1f06791f2a1f7a1f06791f7a1f2a1f067a1f2a1f2a1f06711f2a1f721f06711f721f2a1f06721f2a1f2a1f0302000305000101010201030104010202030b010c010d0196bc9b7f"

// v3GoldenHex is a version-3 stream, the last format that stored the
// maintained indexes: the history of v1GoldenHex with both indexes
// maintained (histogram and pq-gram, q = 2).
const v3GoldenHex = "54454443030708016201630161017a0179017801720171b9eddda30302000300010200000202020607000188b7f0e208016201630161017a01790178017201710302000303000101010201020202060107011e8bfb6b01020e06611f2a1f621f06611f621f631f06611f631f2a1f06621f2a1f2a1f06631f2a1f2a1f06611f621f2a1f06781f2a1f791f06781f791f2a1f06791f2a1f7a1f06791f7a1f2a1f067a1f2a1f2a1f06711f2a1f721f06711f721f2a1f06721f2a1f2a1f0302000305000101010201030104010202030b010c010d0196bc9b7f"

// goldenHistory replays the mutations the golden streams were written
// after.
func goldenHistory(c *corpus.Corpus) {
	for _, s := range []string{"{a{b}{c}}", "{a{b}}", "{x{y{z}}}"} {
		c.Add(ted.MustParse(s))
	}
	c.Delete(1)
	c.Replace(2, ted.MustParse("{q{r}}"))
}

func loadHex(t *testing.T, s string) *corpus.Corpus {
	t.Helper()
	raw, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	c, err := corpus.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("legacy stream no longer loads: %v", err)
	}
	return c
}

// checkLegacyGolden loads a legacy golden stream and compares it with a
// cold build of the same history under the same index options: it must
// hold the same IDs, trees, label ids and indexes (it re-saves as
// version 4 to exactly the cold build's bytes, and those bytes load
// again), and it must join and answer top-k exactly as the cold build
// does.
func checkLegacyGolden(t *testing.T, golden string, opts ...corpus.Option) {
	t.Helper()
	c := loadHex(t, golden)
	cold := corpus.New(opts...)
	goldenHistory(cold)
	want := map[corpus.ID]string{0: "{a{b}{c}}", 2: "{q{r}}"}
	if got := c.IDs(); len(got) != len(want) {
		t.Fatalf("legacy corpus has ids %v, want %d trees", got, len(want))
	}
	for id, s := range want {
		tr, ok := c.Tree(id)
		if !ok || tr.String() != s {
			t.Fatalf("tree %d = %v, want %s", id, tr, s)
		}
	}
	resaved := saveBytes(t, c)
	if v := resaved[4]; v != 4 {
		t.Fatalf("re-save wrote version %d, want 4", v)
	}
	if resaved[5]&(1<<2) == 0 {
		t.Fatalf("re-save did not set the checksum flag (flags %#x)", resaved[5])
	}
	if !bytes.Equal(resaved, saveBytes(t, cold)) {
		t.Fatalf("re-saved legacy corpus differs from the cold build's stream")
	}
	if _, err := corpus.Load(bytes.NewReader(resaved)); err != nil {
		t.Fatalf("version-4 re-load: %v", err)
	}

	e, ce := c.Engine(), cold.Engine()
	for _, tau := range []float64{1, 3, math.Inf(1)} {
		for _, mode := range []batch.IndexMode{batch.IndexEnumerate, batch.IndexHistogram, batch.IndexPQGram} {
			ms, _ := c.Join(e, tau, batch.JoinOptions{Mode: mode})
			cms, _ := cold.Join(ce, tau, batch.JoinOptions{Mode: mode})
			if !reflect.DeepEqual(ms, cms) {
				t.Fatalf("tau=%v mode=%v: legacy corpus joins %v, cold build %v", tau, mode, ms, cms)
			}
		}
	}
	q := ted.MustParse("{a{b}{r}}")
	top, _ := c.TopKAcross(e, c.PrepareQuery(e, q), 3)
	ctop, _ := cold.TopKAcross(ce, cold.PrepareQuery(ce, q), 3)
	if len(top) != 3 || !reflect.DeepEqual(top, ctop) {
		t.Fatalf("legacy corpus top-3 %v, cold build %v", top, ctop)
	}
}

func TestCodecV1BackwardCompat(t *testing.T) {
	checkLegacyGolden(t, v1GoldenHex, corpus.WithHistogramIndex())
}

func TestCodecV2BackwardCompat(t *testing.T) {
	checkLegacyGolden(t, v2GoldenHex, corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2))
}

func TestCodecV3BackwardCompat(t *testing.T) {
	checkLegacyGolden(t, v3GoldenHex, corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2))
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

// v1TamperedStreams returns v1OneTree streams with one stored part
// tampered so that it no longer describes the tree, keyed by the part.
// Version 1 carries no checksums, so nothing but the decoder's
// treatment of these parts stands between such streams and wrong
// answers.
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

// TestCodecV1SkipsStoredArtifacts: Load reads nothing a legacy stream
// stores per tree beyond the tree itself, so a stream whose stored
// mirror-leafmost array, decomposition cardinalities or bound profile
// disagree with its tree loads and answers exactly like the untampered
// stream: the tree matches its own copy at distance 0, exactly, bounded
// at 0 and in a join. A pq-gram index is stored and used, so one with
// stem length 2 is still rejected as corrupt.
func TestCodecV1SkipsStoredArtifacts(t *testing.T) {
	streams := v1TamperedStreams(t)
	raw, err := hex.DecodeString(v1OneTree(v1Lfm, v1Decomp, v1Profile, ""))
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	streams["untampered"] = raw
	for name, stream := range streams {
		c, err := corpus.Load(bytes.NewReader(stream))
		if name == "pq-gram parameters" {
			if err == nil || !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), name) {
				t.Errorf("%s tampered: Load error %v, want a corrupt-stream error naming the %s", name, err, name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Load: %v", name, err)
			continue
		}
		e := c.Engine()
		q := c.PrepareQuery(e, ted.MustParse("{a{b}{c}}"))
		stored, _ := c.Prepared(e, 0)
		if d := e.Distance(q, stored); d != 0 {
			t.Errorf("%s: Distance = %v, want 0", name, d)
		}
		if d, ok := e.DistanceBounded(q, stored, 0); !ok || d != 0 {
			t.Errorf("%s: DistanceBounded = (%v, %v), want (0, true)", name, d, ok)
		}
		c.Add(ted.MustParse("{a{b}{c}}"))
		if ms, _ := c.Join(e, 1, batch.JoinOptions{}); len(ms) != 1 || ms[0].Dist != 0 {
			t.Errorf("%s: join of the tree and its copy found %v, want one match at 0", name, ms)
		}
	}

	// The untampered pq-gram index loads and generates the copy's match.
	raw, err = hex.DecodeString(v1OneTree(v1Lfm, v1Decomp, v1Profile, "0102"+v1PQGrams))
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	c, err := corpus.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("untampered pq-gram stream: %v", err)
	}
	e := c.Engine()
	c.Add(ted.MustParse("{a{b}{c}}"))
	if ms, _ := c.Join(e, 1, batch.JoinOptions{Mode: batch.IndexPQGram}); len(ms) != 1 {
		t.Fatalf("untampered pq-gram stream: join of the tree and its copy found %d matches, want 1", len(ms))
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
