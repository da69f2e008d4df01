package main

import (
	"os"
	"path/filepath"
	"testing"

	ted "repro"
)

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]ted.Algorithm{
		"rted":      ted.RTED,
		"RTED":      ted.RTED,
		"zhang-l":   ted.ZhangL,
		"zhangl":    ted.ZhangL,
		"zhang-r":   ted.ZhangR,
		"klein":     ted.KleinH,
		"klein-h":   ted.KleinH,
		"demaine":   ted.DemaineH,
		"demaine-h": ted.DemaineH,
		"zs":        ted.ZhangShashaClassic,
	}
	for s, want := range cases {
		got, ok := parseAlgorithm(s)
		if !ok || got != want {
			t.Errorf("parseAlgorithm(%q) = %v,%v want %v", s, got, ok, want)
		}
	}
	if _, ok := parseAlgorithm("made-up"); ok {
		t.Error("bogus algorithm accepted")
	}
}

func TestParseTreeFormats(t *testing.T) {
	b, err := parseTree(" {a{b}} \n", "bracket")
	if err != nil || b.Len() != 2 {
		t.Fatalf("bracket: %v %v", b, err)
	}
	n, err := parseTree("(A,B)r;", "newick")
	if err != nil || n.Len() != 3 {
		t.Fatalf("newick: %v %v", n, err)
	}
	x, err := parseTree(`<a><b/></a>`, "xml")
	if err != nil || x.Len() != 2 {
		t.Fatalf("xml: %v %v", x, err)
	}
	if _, err := parseTree("{a}", "nope"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := parseTree("{a", "bracket"); err == nil {
		t.Fatal("malformed bracket accepted")
	}
}

func TestRunJoin(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trees.txt")
	content := "{a{b}{c}}\n{a{b}{d}}\n\n{x{y{z}}}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, filters := range []bool{false, true} {
		if err := runJoin(path, 2, ted.RTED, 2, filters, ""); err != nil {
			t.Fatalf("filters=%v: %v", filters, err)
		}
	}
	for _, mode := range []string{"auto", "enumerate", "histogram", "pqgram"} {
		if err := runJoin(path, 2, ted.RTED, 2, false, mode); err != nil {
			t.Fatalf("index=%s: %v", mode, err)
		}
	}
	if err := runJoin(path, 2, ted.RTED, 2, false, "bogus"); err == nil {
		t.Fatal("bogus index mode accepted")
	}
	if err := runJoin(filepath.Join(dir, "missing.txt"), 2, ted.RTED, 1, false, ""); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("{oops\n"), 0o644)
	if err := runJoin(bad, 2, ted.RTED, 1, false, ""); err == nil {
		t.Fatal("malformed tree file accepted")
	}
}

// TestRunBounded exercises both output branches of the bounded two-tree
// mode (exact-within-tau and exceeds-tau) with and without stats.
func TestRunBounded(t *testing.T) {
	f := ted.MustParse("{a{b}{c}}")
	g := ted.MustParse("{a{b{d}}}")
	d := ted.Distance(f, g)
	for _, tau := range []float64{d - 1, d, d + 1} {
		for _, stats := range []bool{false, true} {
			runBounded(f, g, tau, ted.RTED, stats)
		}
	}
	runBounded(f, g, 0.5, ted.ZhangShashaClassic, false)
}

// TestDetectFormat is the table-driven pin for extension-based format
// autodetection and the -format override.
func TestDetectFormat(t *testing.T) {
	cases := []struct {
		path, override, want string
	}{
		{"trees/doc.xml", "", "xml"},
		{"doc.XML", "", "xml"},
		{"phylo.nwk", "", "newick"},
		{"phylo.newick", "", "newick"},
		{"phylo.NWK", "", "newick"},
		{"trees.txt", "", "bracket"},
		{"trees.bracket", "", "bracket"},
		{"noextension", "", "bracket"},
		{"", "", "bracket"},               // -e literal: no file name
		{"doc.xml", "bracket", "bracket"}, // explicit -format wins
		{"trees.txt", "newick", "newick"},
		{"phylo.nwk", "xml", "xml"},
	}
	for _, c := range cases {
		if got := resolveFormat(c.override, c.path); got != c.want {
			t.Errorf("resolveFormat(%q, %q) = %q, want %q", c.override, c.path, got, c.want)
		}
	}
}

// TestDetectFormatParses runs the detected format end to end: the same
// content parses (or fails) according to the file name it arrived under.
func TestDetectFormatParses(t *testing.T) {
	cases := []struct {
		name, content string
		nodes         int
	}{
		{"a.xml", "<a><b/><c/></a>", 3},
		{"a.nwk", "(A,B)r;", 3},
		{"a.txt", "{r{a}{b}}", 3},
	}
	for _, c := range cases {
		tr, err := parseTree(c.content, resolveFormat("", c.name))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tr.Len() != c.nodes {
			t.Fatalf("%s: %d nodes, want %d", c.name, tr.Len(), c.nodes)
		}
	}
	if _, err := parseTree("<a/>", resolveFormat("", "a.txt")); err == nil {
		t.Fatal("XML content under a bracket name must fail to parse")
	}
}

// TestRunCorpusJoin drives the -corpus-save/-corpus-load path: save a
// collection, reload it in place of the tree file, and join both ways.
func TestRunCorpusJoin(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trees.txt")
	content := "{a{b}{c}}\n{a{b}{d}}\n{x{y{z}}}\n{a{b}{c}}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "trees.tedc")
	if err := runCorpusJoin("", saved, path, 2, ted.RTED, 2, "auto"); err != nil {
		t.Fatalf("save+join: %v", err)
	}
	if _, err := os.Stat(saved); err != nil {
		t.Fatalf("corpus file not written: %v", err)
	}
	for _, mode := range []string{"", "auto", "histogram", "enumerate"} {
		if err := runCorpusJoin(saved, "", "", 2, ted.RTED, 2, mode); err != nil {
			t.Fatalf("load+join (%q): %v", mode, err)
		}
	}
	if err := runCorpusJoin(saved, "", "", 2, ted.ZhangL, 1, ""); err != nil {
		t.Fatalf("load+join with fixed strategy: %v", err)
	}
	if err := runCorpusJoin(filepath.Join(dir, "missing.tedc"), "", "", 2, ted.RTED, 1, ""); err == nil {
		t.Fatal("missing corpus accepted")
	}
	if err := runCorpusJoin("", "", path, 2, ted.RTED, 1, "bogus"); err == nil {
		t.Fatal("bogus index mode accepted")
	}
}

// TestParseIndexMode: -index takes batch.ParseIndexMode's names — the
// aliases and any letter case — on both join paths, and rejects an
// unknown name.
func TestParseIndexMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trees.txt")
	if err := os.WriteFile(path, []byte("{a{b}{c}}\n{a{b}{d}}\n{x{y{z}}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"AUTO", "enum", "hist", "Histogram", "pq", "PQGram"} {
		if err := runJoin(path, 2, ted.RTED, 1, false, mode); err != nil {
			t.Errorf("-join -index %s: %v", mode, err)
		}
		if err := runCorpusJoin("", "", path, 2, ted.RTED, 1, mode); err != nil {
			t.Errorf("-corpus-save -index %s: %v", mode, err)
		}
	}
	if err := runJoin(path, 2, ted.RTED, 1, false, "made-up"); err == nil {
		t.Error("bogus index mode accepted")
	}
}
