// Package index provides inverted-index candidate generation for
// tree-similarity joins: given a corpus of trees and a distance threshold
// τ, an index generates the pairs that could possibly be within τ instead
// of enumerating all O(n²) pairs and filtering them afterwards.
//
// # Why candidate generation
//
// The batch engine's filtered join already avoids most exact
// tree-edit-distance computations by bracketing every pair with cheap
// lower and upper bounds, but it still *visits* every pair — the join
// stays quadratic in the corpus even when almost nothing matches. The
// indexes in this package flip the loop around, in the spirit of
// bounded-distance filtering (Jin et al. 2021, "Faster Algorithms for
// Bounded Tree Edit Distance"): per-tree signatures go into inverted
// posting lists once, and each query retrieves, in time proportional to
// the size of its posting lists, only the trees whose signature overlap
// makes a match possible. The join pipeline becomes
//
//	index probe  →  signature lower bound  →  bound filters  →  exact GTED
//	(generates        (O(1) per              (per pair,         (undecided
//	 candidates)       candidate)             unit cost)          middle only)
//
// and its cost is driven by the number of candidates, not the corpus
// size squared.
//
// # The two indexes
//
// [Histogram] keys trees by their label multiset. The posting-list merge
// computes the exact label intersection, which gives the classic O(1)
// lower bound max(|F|,|G|) − |labels ∩|; generation is provably complete
// for every threshold (a non-candidate pair provably cannot match). It
// is the default of corpus.Corpus.Join: cheap to build, one posting per
// distinct label per tree, and strongest when labels are diverse.
//
// [PQGram] keys trees by their pq-gram profile — label tuples that
// encode local structure, not just label content. It generates the
// trees that share at least one gram with the query and whose gram-count
// lower bound stays below τ. Its stems have length p = 1, so it carries
// the same completeness guarantee (see the type comment for the
// argument). Prefer it over Histogram when labels alone are
// uninformative — corpora drawn from a tiny alphabet, or near-duplicate
// detection where most trees share most labels and only structure
// discriminates.
//
// Both indexes generate candidates for a self-join in "probe below"
// style: CandidatesBelow(q, τ, dst) returns only candidates with id < q,
// so iterating the queries in id order enumerates every unordered pair
// exactly once.
//
// # Stable ids, mutation, and synchronization
//
// Trees are indexed under stable ids: Add auto-assigns the next unused
// id, Put indexes under a caller-chosen id (the id a corpus.Corpus
// assigned), and ids are never reused. Long-lived indexes mutate in
// place — Delete and Put-replacement tombstone the superseded postings
// through a per-tree generation counter, probes skip tombstones with
// one comparison, and a compaction pass, run automatically once
// tombstones dominate, rewrites the lists without them.
//
// Both indexes key on the label ids of one label table, the one they
// are built on: a histogram's keys are label ids, a pq-gram's are
// tuples of them, so an index holds no label strings and tree labels
// are never compared as strings. An index has no persistent form: an
// index built from the same trees generates the same candidates, and
// package corpus rebuilds its maintained indexes from the stored trees
// when it loads a snapshot.
//
// An index's owner is its only synchronization. Mutations — Add, Put,
// Delete and the compaction they trigger — must not overlap each other
// or any other call. CandidatesBelow and Len only read, so they may run
// concurrently with each other; each probe works on a pooled
// accumulator, and the one structure probes rebuild lazily, the size
// order of the small-tree sweep, carries a lock of its own.
// corpus.Corpus meets the contract with its lock: every mutation of a
// maintained index runs under the write lock and every probe under the
// read lock, and a join's throwaway index is built and probed on one
// goroutine.
//
// # Relation to the rest of the repository
//
// The indexes are deliberately engine-agnostic: they know trees and
// thresholds, not PreparedTrees or worker pools. Package corpus owns
// candidate generation: corpus.Corpus maintains these indexes
// incrementally across mutations, or builds one over a join's snapshot
// when it keeps none, probes them per query, and
// hands the pairs to batch.Engine.JoinCandidatesStream, where the bound
// filters and arena-backed GTED runners finish the job on the worker
// pool; ted.Join exposes the same path via ted.WithIndex. The pq-gram
// pseudo-metric itself is ted.PQGramDistance.
package index
