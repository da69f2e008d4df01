// Command ted computes the tree edit distance between two trees.
//
// Trees are read from files (or literals with -e) in bracket notation
// ({a{b}{c}}), Newick or XML. The format is detected from the file
// extension (.xml → xml, .nwk/.newick → newick, anything else →
// bracket); -format overrides the detection, and is required for
// literals that are not bracket trees.
//
// Usage:
//
//	ted [-algorithm rted] [-stats] [-mapping] F G
//	ted -e '{a{b}}' -e '{a{c}}'
//	ted -tau 5 F G                             # bounded: "is d ≤ 5?"
//	ted -join -tau 12 trees.txt                # one bracket tree per line
//	ted -join -tau 12 -index auto trees.txt    # index-generated candidates
//
//	ted -join -tau 12 -corpus-save t.tedc trees.txt   # join, then persist
//	ted -join -tau 12 -corpus-load t.tedc             # join a saved corpus
//
// With -tau in two-tree mode the distance is computed in bounded mode:
// the exact distance is printed when it is at most tau, and ">tau"
// when it provably exceeds it (usually after skipping most of the DP).
//
// -corpus-save writes the join collection as a persistent corpus (trees
// as their label ids, and which indexes it maintains; package corpus),
// and -corpus-load joins such a corpus directly — a restart skips
// parsing and label interning, and rebuilds the indexes from the label
// ids.
//
// Exit status 0; the distance (or join result) is printed to stdout.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/internal/strategy"
	"repro/internal/tree"
)

type literals []string

func (l *literals) String() string     { return strings.Join(*l, ",") }
func (l *literals) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var (
		algName    = flag.String("algorithm", "rted", "rted | zhang-l | zhang-r | klein-h | demaine-h | zs")
		format     = flag.String("format", "", "bracket | newick | xml (default: detect from the file extension)")
		stats      = flag.Bool("stats", false, "print subproblem and timing statistics to stderr")
		mapping    = flag.Bool("mapping", false, "print the edit mapping")
		joinMode   = flag.Bool("join", false, "similarity self-join over a file of trees (one per line)")
		tau        = flag.Float64("tau", 10, "join distance threshold; in two-tree mode, bounded-distance cutoff")
		workers    = flag.Int("workers", 0, "join worker goroutines (0 = all CPU cores)")
		filters    = flag.Bool("filters", false, "join: prune with lower/upper bounds (unit costs)")
		indexMode  = flag.String("index", "", "join: generate candidates from an inverted index: auto | enumerate | histogram | pqgram (empty = off)")
		corpusSave = flag.String("corpus-save", "", "join: persist the collection as a corpus (trees as label ids, indexes rebuilt at load) to this path")
		corpusLoad = flag.String("corpus-load", "", "join: load the collection from a saved corpus instead of a tree file")
		exprs      literals
	)
	flag.Var(&exprs, "e", "tree literal (repeatable; used instead of file arguments)")
	flag.Parse()
	tauSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "tau" {
			tauSet = true
		}
	})

	alg, ok := parseAlgorithm(*algName)
	if !ok {
		fail("unknown algorithm %q", *algName)
	}

	if *joinMode {
		switch {
		case *corpusLoad != "":
			if flag.NArg() != 0 {
				fail("-corpus-load replaces the tree file argument")
			}
		case flag.NArg() != 1:
			fail("-join needs one file of trees (one bracket tree per line), or -corpus-load")
		}
		if *corpusLoad != "" || *corpusSave != "" {
			treesPath := ""
			if flag.NArg() == 1 {
				treesPath = flag.Arg(0)
			}
			if err := runCorpusJoin(*corpusLoad, *corpusSave, treesPath, *tau, alg, *workers, *indexMode); err != nil {
				fail("%v", err)
			}
			return
		}
		if err := runJoin(flag.Arg(0), *tau, alg, *workers, *filters, *indexMode); err != nil {
			fail("%v", err)
		}
		return
	}
	if *indexMode != "" {
		fail("-index only applies to -join")
	}
	if *corpusSave != "" || *corpusLoad != "" {
		fail("-corpus-save/-corpus-load only apply to -join")
	}

	var sources, names []string
	if len(exprs) > 0 {
		sources = exprs
		names = make([]string, len(exprs)) // literals have no extension
	} else {
		if flag.NArg() != 2 {
			fail("need two tree files (or two -e literals)")
		}
		for _, p := range flag.Args() {
			b, err := os.ReadFile(p)
			if err != nil {
				fail("%v", err)
			}
			sources = append(sources, string(b))
			names = append(names, p)
		}
	}
	if len(sources) != 2 {
		fail("need exactly two trees, got %d", len(sources))
	}

	trees := make([]*ted.Tree, 2)
	for i, s := range sources {
		t, err := parseTree(s, resolveFormat(*format, names[i]))
		if err != nil {
			fail("tree %d: %v", i+1, err)
		}
		trees[i] = t
	}

	if tauSet {
		if *mapping {
			fail("-mapping needs the exact distance; drop -tau")
		}
		runBounded(trees[0], trees[1], *tau, alg, *stats)
		return
	}

	var st ted.Stats
	d := ted.Distance(trees[0], trees[1], ted.WithAlgorithm(alg), ted.WithStats(&st))
	fmt.Println(d)

	if *stats {
		fmt.Fprintf(os.Stderr, "algorithm    %s\n", alg)
		fmt.Fprintf(os.Stderr, "sizes        |F|=%d |G|=%d\n", trees[0].Len(), trees[1].Len())
		fmt.Fprintf(os.Stderr, "subproblems  %d\n", st.Subproblems)
		fmt.Fprintf(os.Stderr, "spf calls    %d\n", st.SPFCalls)
		if alg == ted.RTED {
			fmt.Fprintf(os.Stderr, "strategy     %v (%.1f%% of %v)\n",
				st.StrategyTime, 100*st.StrategyTime.Seconds()/st.TotalTime.Seconds(), st.TotalTime)
		} else {
			fmt.Fprintf(os.Stderr, "total        %v\n", st.TotalTime)
		}
	}
	if *mapping {
		for _, op := range ted.Mapping(trees[0], trees[1]) {
			switch op.Kind {
			case ted.OpMatch:
				kind := "match "
				if op.FLabel != op.GLabel {
					kind = "rename"
				}
				fmt.Printf("%s  F:%d %q -> G:%d %q (cost %g)\n", kind, op.FNode, op.FLabel, op.GNode, op.GLabel, op.Cost)
			case ted.OpDelete:
				fmt.Printf("delete  F:%d %q (cost %g)\n", op.FNode, op.FLabel, op.Cost)
			case ted.OpInsert:
				fmt.Printf("insert  G:%d %q (cost %g)\n", op.GNode, op.GLabel, op.Cost)
			}
		}
	}
}

// runBounded answers the threshold question for one pair: it prints the
// exact distance when it is at most tau and ">tau" otherwise.
func runBounded(f, g *ted.Tree, tau float64, alg ted.Algorithm, stats bool) {
	var st ted.Stats
	d, ok := ted.DistanceBounded(f, g, tau, ted.WithAlgorithm(alg), ted.WithStats(&st))
	if ok {
		fmt.Println(d)
	} else {
		fmt.Printf(">%g\n", tau)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "algorithm    %s (bounded, tau=%g)\n", alg, tau)
		fmt.Fprintf(os.Stderr, "sizes        |F|=%d |G|=%d\n", f.Len(), g.Len())
		fmt.Fprintf(os.Stderr, "subproblems  %d evaluated, %d pruned\n", st.Subproblems, st.PrunedSubproblems)
		fmt.Fprintf(os.Stderr, "band         %d cells skipped in ranges, %d refused at the root\n",
			st.BandSkippedCells, st.PrunedKeyroots)
		fmt.Fprintf(os.Stderr, "rows         %d band-compressed, %d cells materialized (%d bytes)\n",
			st.CompressedRows, st.RowCells, 8*st.RowCells)
		fmt.Fprintf(os.Stderr, "total        %v\n", st.TotalTime)
	}
}

func runJoin(path string, tau float64, alg ted.Algorithm, workers int, filters bool, indexMode string) error {
	trees, err := readTreeLines(path)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// The join runs on the batch engine: trees are prepared once and the
	// pairs fan out over the workers on reusable arenas. With -index, an
	// inverted index generates the candidate pairs instead of enumerating
	// them; the bound filters then run on the candidates.
	opts := []ted.Option{ted.WithAlgorithm(alg), ted.WithWorkers(workers)}
	if filters {
		opts = append(opts, ted.WithFilters())
	}
	indexed := indexMode != ""
	if indexed {
		m, err := batch.ParseIndexMode(indexMode)
		if err != nil {
			return fmt.Errorf("-index: %w", err)
		}
		opts = append(opts, ted.WithIndex(m))
	}
	r := ted.Join(trees, tau, opts...)
	if indexed {
		fmt.Printf("# %d trees, %d candidates (index %s, built+probed in %v), %d subproblems, %v\n",
			len(trees), r.Comparisons, r.Mode, r.IndexTime, r.Subproblems, r.Elapsed)
	} else {
		fmt.Printf("# %d trees, %d comparisons, %d subproblems, %v\n",
			len(trees), r.Comparisons, r.Subproblems, r.Elapsed)
	}
	if filters || indexed {
		fmt.Printf("# filters: %d lb-pruned, %d ub-accepted, %d exact\n",
			r.LowerPruned, r.UpperAccepted, r.ExactComputed)
	}
	for _, p := range r.Pairs {
		fmt.Printf("%d\t%d\t%g\n", p.I, p.J, p.Dist)
	}
	return nil
}

func parseAlgorithm(s string) (ted.Algorithm, bool) {
	switch strings.ToLower(s) {
	case "rted":
		return ted.RTED, true
	case "zhang-l", "zhangl":
		return ted.ZhangL, true
	case "zhang-r", "zhangr":
		return ted.ZhangR, true
	case "klein-h", "klein":
		return ted.KleinH, true
	case "demaine-h", "demaine":
		return ted.DemaineH, true
	case "zs", "zs-classic":
		return ted.ZhangShashaClassic, true
	}
	return 0, false
}

// detectFormat maps a file extension to a tree format: .xml is XML,
// .nwk/.newick are Newick, and everything else (including no file at
// all) is bracket notation.
func detectFormat(path string) string {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".xml":
		return "xml"
	case ".nwk", ".newick":
		return "newick"
	}
	return "bracket"
}

// resolveFormat applies the -format override, falling back to detection
// from the input's file name.
func resolveFormat(override, path string) string {
	if override != "" {
		return override
	}
	return detectFormat(path)
}

// corpusEngineOpts mirrors the engine a plain join would build: worker
// pool plus the algorithm's strategy (the paper's for RTED, the fixed
// override for the competitor algorithms).
func corpusEngineOpts(alg ted.Algorithm, workers int) []batch.Option {
	opts := []batch.Option{batch.WithWorkers(workers)}
	if alg == ted.ZhangShashaClassic {
		alg = ted.ZhangL // no strategy form; identical distances
	}
	if alg == ted.RTED {
		return append(opts, batch.WithPaperStrategy())
	}
	a := alg
	return append(opts, batch.WithStrategy(func(f, g *tree.Tree) strategy.Strategy {
		return ted.StrategyFor(a, f, g)
	}))
}

// runCorpusJoin is the persistent-corpus join path: the collection comes
// from a saved corpus (-corpus-load) or from a tree file that is then
// persisted (-corpus-save), and the join runs on the corpus's prepared
// trees with the corpus's own maintained index generating candidates.
func runCorpusJoin(loadPath, savePath, treesPath string, tau float64, alg ted.Algorithm, workers int, indexMode string) error {
	mode, err := batch.ParseIndexMode(indexMode)
	if err != nil {
		return fmt.Errorf("-index: %w", err)
	}
	var cp *corpus.Corpus
	switch {
	case loadPath != "":
		if cp, err = corpus.LoadFile(loadPath); err != nil {
			return err
		}
	default:
		trees, err := readTreeLines(treesPath)
		if err != nil {
			return err
		}
		// Maintain the index the join will probe; pq-gram mode keeps the
		// histogram too, so a reloaded corpus can serve either.
		opts := []corpus.Option{corpus.WithHistogramIndex()}
		if mode == ted.IndexPQGram {
			opts = append(opts, corpus.WithPQGramIndex(2))
		}
		cp = corpus.New(opts...)
		for _, t := range trees {
			cp.Add(t)
		}
	}
	if savePath != "" {
		if err := cp.SaveFile(savePath); err != nil {
			return err
		}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := cp.Engine(corpusEngineOpts(alg, workers)...)
	ms, st := cp.Join(e, tau, batch.JoinOptions{Mode: mode})
	fmt.Printf("# corpus of %d trees, %d candidates (index %s, probed in %v), %d subproblems, %v\n",
		cp.Len(), st.Comparisons, st.Mode, st.IndexTime, st.Subproblems, st.Elapsed)
	fmt.Printf("# filters: %d lb-pruned, %d ub-accepted, %d exact\n",
		st.LowerPruned, st.UpperAccepted, st.ExactComputed)
	for _, m := range ms {
		fmt.Printf("%d\t%d\t%g\n", m.I, m.J, m.Dist)
	}
	return nil
}

// readTreeLines reads a join collection: one bracket tree per line,
// blank lines skipped.
func readTreeLines(path string) ([]*ted.Tree, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var trees []*ted.Tree
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		t, err := ted.Parse(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, ln, err)
		}
		trees = append(trees, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return trees, nil
}

func parseTree(s, format string) (*ted.Tree, error) {
	switch format {
	case "bracket":
		return ted.Parse(strings.TrimSpace(s))
	case "newick":
		return ted.ParseNewick(strings.TrimSpace(s))
	case "xml":
		return ted.FromXML(strings.NewReader(s), ted.XMLOptions{IncludeAttributes: true, IncludeText: true})
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ted: "+format+"\n", args...)
	os.Exit(2)
}
