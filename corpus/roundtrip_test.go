package corpus_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
)

// corpora builds three collections, one per ingestion format, so the
// round-trip property covers every parser's label alphabet: bracket
// trees with an escaped-character label, Newick phylogenies (empty
// internal labels), and XML documents (attribute and text nodes).
func corpora(t *testing.T) map[string][]*ted.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(31))

	var bracket []*ted.Tree
	bracket = append(bracket, ted.MustParse(`{we\{ird{a}{b}}`))
	for i := 0; i < 9; i++ {
		base := gen.Random(rng.Int63(), gen.RandomSpec{
			Size: 4 + rng.Intn(20), MaxDepth: 7, MaxFanout: 4, Labels: 5,
		})
		bracket = append(bracket, base)
		if i%2 == 0 {
			bracket = append(bracket, gen.RenameSome(base, 1+i/3, rng.Int63()))
		}
	}

	newickSrc := []string{
		"(A,B,(C,D));",
		"(A,B,(C,E));",
		"((raccoon:19.2,bear:6.8):0.85,((sea_lion:12, seal:12):7.5,dog:25):2,weasel:18);",
		"((raccoon:19.2,bear:6.8):0.85,((sea_lion:12, seal:11):7.5,wolf:25):2,weasel:18);",
		"('quoted name',(B,C)inner)root;",
		"(A,(B,(C,(D,(E)))));",
	}
	var newick []*ted.Tree
	for _, s := range newickSrc {
		tr, err := ted.ParseNewick(s)
		if err != nil {
			t.Fatalf("newick %q: %v", s, err)
		}
		newick = append(newick, tr)
	}

	xmlSrc := []string{
		`<library><book id="1"><title>TED</title></book><book id="2"/></library>`,
		`<library><book id="1"><title>RTED</title></book><book id="3"/></library>`,
		`<a><b x="1">text</b><c><d/><d/></c></a>`,
		`<a><b x="2">text</b><c><d/></c></a>`,
		`<r>only text</r>`,
	}
	var xmls []*ted.Tree
	for _, s := range xmlSrc {
		tr, err := ted.FromXML(strings.NewReader(s), ted.XMLOptions{IncludeAttributes: true, IncludeText: true})
		if err != nil {
			t.Fatalf("xml %q: %v", s, err)
		}
		xmls = append(xmls, tr)
	}
	return map[string][]*ted.Tree{"bracket": bracket, "newick": newick, "xml": xmls}
}

// TestRoundTripProperty is the satellite property test: for corpora from
// every ingestion format, Save → Load → Join produces bit-
// identical match sets and distances to the never-serialized corpus,
// across histogram and pq-gram candidate generation and tau ∈
// {0, finite, +Inf}.
func TestRoundTripProperty(t *testing.T) {
	for name, trees := range corpora(t) {
		t.Run(name, func(t *testing.T) {
			c := corpus.New(corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2))
			for _, tr := range trees {
				c.Add(tr)
			}
			var buf bytes.Buffer
			if err := c.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			c2, err := corpus.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			e, e2 := c.Engine(), c2.Engine()
			finite := 1 + float64(trees[0].Len())/2
			for _, tau := range []float64{0, finite, math.Inf(1)} {
				for _, mode := range []batch.IndexMode{batch.IndexHistogram, batch.IndexPQGram} {
					label := fmt.Sprintf("tau=%v mode=%v", tau, mode)
					ms, _ := c.Join(e, tau, batch.JoinOptions{Mode: mode})
					ms2, _ := c2.Join(e2, tau, batch.JoinOptions{Mode: mode})
					if len(ms) != len(ms2) {
						t.Fatalf("%s: %d vs %d matches", label, len(ms), len(ms2))
					}
					for k := range ms {
						if ms[k] != ms2[k] {
							t.Fatalf("%s: match %d = %+v (in-memory) vs %+v (reloaded)", label, k, ms[k], ms2[k])
						}
					}
				}
			}
		})
	}
}
