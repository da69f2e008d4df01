package corpus_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	ted "repro"
	"repro/corpus"
)

// BenchmarkCorpusOpenWarm times a restart's set-up on the corpus of the
// end-to-end benchmark's point workload: 5,000 mixed trees (mixedTree)
// in a snapshot of a corpus that maintains a histogram index (the point
// workload's), or a histogram and a pq-gram index (q = 2). One op opens
// the snapshot (corpus.Open: decode, build the trees, build the
// indexes) and warms a corpus-attached engine on it (Corpus.Warm);
// open-ms and warm-ms report the two parts, snapshot-bytes the size of
// the file. Open builds on GOMAXPROCS goroutines and Warm prepares on
// the engine's workers, which default to GOMAXPROCS too, so -cpu sets
// both:
//
//	go test -run '^$' -bench CorpusOpenWarm -benchtime 20x -cpu 1,2 ./corpus
func BenchmarkCorpusOpenWarm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trees := make([]*ted.Tree, 5000)
	for i := range trees {
		trees[i] = mixedTree(rng)
	}
	for _, bc := range []struct {
		name string
		opts []corpus.Option
	}{
		{"histogram", []corpus.Option{corpus.WithHistogramIndex()}},
		{"both", []corpus.Option{corpus.WithHistogramIndex(), corpus.WithPQGramIndex(2)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := corpus.New(bc.opts...)
			for _, t := range trees {
				c.Add(t)
			}
			path := filepath.Join(b.TempDir(), "point.tedc")
			if err := c.SaveFile(path); err != nil {
				b.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			var open, warm time.Duration
			b.ResetTimer()
			for range b.N {
				start := time.Now()
				oc, err := corpus.Open(path, bc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				opened := time.Now()
				oc.Warm(oc.Engine())
				warm += time.Since(opened)
				open += opened.Sub(start)
				b.StopTimer()
				if err := oc.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(open.Microseconds())/1e3/float64(b.N), "open-ms")
			b.ReportMetric(float64(warm.Microseconds())/1e3/float64(b.N), "warm-ms")
			b.ReportMetric(float64(st.Size()), "snapshot-bytes")
		})
	}
}
