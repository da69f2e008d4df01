package index

// Compact runs the compaction pass that Put and Delete trigger once
// tombstones dominate, so tests can compare a probe's view before and
// after it.
func (ix *Histogram) Compact() { ix.iv.compact() }

// Compact is Histogram.Compact for the pq-gram index.
func (ix *PQGram) Compact() { ix.iv.compact() }
