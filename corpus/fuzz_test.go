package corpus_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	ted "repro"
	"repro/corpus"
)

// FuzzCorpusDecode is the decoder's robustness contract: on arbitrary
// bytes Load must return an error or a usable corpus — never panic, and
// never allocate past what the input's actual length can justify (the
// decoder grows slices by append against capped hints, so a hostile
// count dies at the first missing byte). A successfully decoded corpus
// must additionally survive a save/load round trip of its own: whatever
// the fuzzer found, the invariants the rest of the stack relies on
// (valid trees with in-range label ids) hold. The seeds cover version 4
// with and without indexes, the version-1, version-2 and version-3
// goldens, and version-1 streams whose stored per-tree artifacts
// disagree with their tree.
func FuzzCorpusDecode(f *testing.F) {
	seed := func(opts ...corpus.Option) []byte {
		c := corpus.New(opts...)
		for _, s := range []string{"{a{b}{c}}", "{a{b}}", "{x{y{z}}}", "{a}"} {
			c.Add(ted.MustParse(s))
		}
		c.Delete(1)
		c.Replace(2, ted.MustParse("{q{r}}"))
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			f.Fatalf("seed save: %v", err)
		}
		return buf.Bytes()
	}
	f.Add(seed())
	f.Add(seed(corpus.WithHistogramIndex()))
	f.Add(seed(corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2)))
	for _, bad := range v1TamperedStreams(f) {
		f.Add(bad)
	}
	for _, golden := range []string{v1GoldenHex, v2GoldenHex, v3GoldenHex} {
		raw, err := hex.DecodeString(golden)
		if err != nil {
			f.Fatalf("bad fixture hex: %v", err)
		}
		f.Add(raw)
	}
	f.Add([]byte("TEDC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := corpus.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: the corpus must be internally consistent enough
		// to re-encode and reload losslessly.
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatalf("accepted corpus failed to re-save: %v", err)
		}
		c2, err := corpus.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-saved corpus failed to reload: %v", err)
		}
		if c2.Len() != c.Len() {
			t.Fatalf("re-loaded corpus has %d trees, want %d", c2.Len(), c.Len())
		}
		for _, id := range c.IDs() {
			a, _ := c.Tree(id)
			b, ok := c2.Tree(id)
			if !ok || a.String() != b.String() {
				t.Fatalf("tree %d did not survive the round trip", id)
			}
		}
	})
}
