// Package ted computes the tree edit distance between ordered labeled
// trees. It is a from-scratch Go implementation of
//
//	Mateusz Pawlik, Nikolaus Augsten:
//	"RTED: A Robust Algorithm for the Tree Edit Distance",
//	PVLDB 5(4), 2011.
//
// # The algorithm
//
// The tree edit distance is the minimum total cost of node deletions,
// insertions and renames that turn one ordered labeled tree into
// another. Every practical exact algorithm evaluates the same recursive
// forest-distance formula; they differ only in the root-leaf paths along
// which they decompose the trees, and each fixed choice (left paths for
// Zhang–Shasha, heavy paths for Klein and Demaine et al.) has input
// shapes that degrade it from O(n² log² n)-ish behavior to its worst
// case. RTED — the paper's contribution and this package's default —
// first computes, in O(n²) time and space, the provably optimal
// left/right/heavy (LRH) decomposition strategy for the concrete input
// pair, then evaluates the distance with the strategy-generic GTED
// algorithm. Its subproblem count is therefore never larger than that of
// any LRH competitor, at a strategy-computation overhead that vanishes
// against the distance computation itself.
//
// All five algorithms from the paper's evaluation are available through
// WithAlgorithm (RTED, ZhangL, ZhangR, KleinH, DemaineH, plus the
// hard-coded ZhangShashaClassic), and CountSubproblems reproduces the
// paper's cost measure analytically without computing a distance.
//
// # Basic usage
//
//	f := ted.MustParse("{a{b}{c}}")
//	g := ted.MustParse("{a{b{d}}}")
//	d := ted.Distance(f, g) // 2: insert d, delete c
//
// Trees use the bracket notation of the reference RTED distribution
// ({label child child ...}); XML documents and Newick phylogenies can be
// converted with FromXML and ParseNewick. Nodes of a parsed tree are
// identified by their postorder id (0-based; the root is Len()-1).
//
// Beyond Distance, the package offers DistanceBounded (the threshold
// question "is d ≤ τ?", answered without always paying for the full
// computation: cheap bounds first, then GTED with τ threaded into its DP
// as a saturating cutoff), Mapping (the optimal edit script), Join (the
// threshold similarity self-join of the paper's Table 1, with optional
// bound-based filtering and a worker pool), TopKSubtrees and
// TopKSubtreesAcross (top-k approximate subtree matching, the latter
// shrinking the cutoff to the running k-th best across a collection),
// SubtreeDistances (the full subtree-pair distance matrix), and
// LowerBound/ConstrainedDistance (cheap lower and upper bounds for
// pruning).
//
// # Architecture
//
// The public API is a thin veneer over focused internal packages:
//
//	ted (this package)   options, cost-model and algorithm selection
//	ted/batch            concurrent batch engine: PreparedTree + arenas
//	ted/corpus           persistent store: stable IDs, codec, write-ahead log;
//	                     join candidate generation (which pairs a join visits)
//	ted/server           HTTP serving layer: JSON API + admission control
//	ted/index            inverted indexes for join candidate generation
//	internal/tree        immutable postorder-indexed tree substrate
//	internal/strategy    LRH strategies, Algorithm 2 (OptStrategy), cost formula, time price
//	internal/gted        GTED (Algorithm 1), the single-path functions ΔL/ΔR/ΔI
//	                     and the kernel counters (Counters) every layer's stats embed
//	internal/cost        cost models, label interning, compiled per-pair form
//	internal/bounds      lower/upper bounds and per-tree bound profiles
//	internal/zs          standalone classic Zhang–Shasha (comparison baseline)
//	internal/experiments the paper's Section 8 figures and tables, nothing
//	                     else (cmd/tedbench); benchmark/ measures the serving stack
//
// Join and TopKSubtrees run on the batch engine (package batch): every
// input tree is prepared once — node indexes, decomposition
// cardinalities, interned cost vectors, bound profiles — and the pairs
// are evaluated on per-worker reusable memory arenas, so the steady-state
// hot path allocates nothing. An indexed join (WithIndex) goes through
// package corpus, which generates the candidate pairs the engine then
// evaluates. Workloads that compare many trees repeatedly (similarity
// joins, top-k serving, clustering) should use packages batch and corpus
// directly and keep the prepared state.
//
// # Choosing a distance or join configuration
//
// For a single pair, the first question is whether the exact distance is
// needed at all:
//
//	What is the question?
//	├── "what is d?"        → Distance(f, g)
//	├── "is d ≤ τ?"         → DistanceBounded(f, g, τ) — cheap bounds
//	│                          first, then GTED with τ as a DP cutoff;
//	│                          exact d returned whenever d ≤ τ
//	└── "which subtrees of the data are closest?"
//	      ├── one data tree  → TopKSubtrees(query, data, k)
//	      └── a collection   → TopKSubtreesAcross(query, data, k) —
//	                            trees visited by a label bound, the
//	                            cutoff shrinking to the running k-th
//	                            best, trees whose Euler-string bound
//	                            passes it skipped, the scan stopping
//	                            once the label bound passes it
//
// Join always returns exactly the pairs with distance below the
// threshold; the options only change how much work that takes.
//
//	How many trees?
//	├── a handful (cost dominated by a few hard pairs)
//	│     └── Join(trees, tau)              — plain, add WithWorkers(n)
//	├── many, non-unit cost model
//	│     └── Join(trees, tau, WithWorkers) — bounds need unit costs;
//	│                                          only the pool helps
//	└── many, unit costs
//	      ├── tau ≥ the largest tree size (non-selective)
//	      │     └── WithFilters()           — indexes cannot prune;
//	      │                                    bounds still decide pairs
//	      └── tau selective
//	            ├── labels diverse  → WithIndex(IndexAuto)
//	            │                      (histogram candidate generation)
//	            ├── labels carry little information (tiny alphabet,
//	            │   near-duplicates) → WithIndex(IndexPQGram)
//	            └── unsure          → WithIndex(IndexAuto); it falls
//	                                   back to enumeration when the
//	                                   threshold is too large to prune
//
// All of it composes: an indexed join's candidates run the bound
// filters, seed exact GTED with the threshold as a cutoff (so the DP
// skips every cell that provably exceeds it), and fan out over
// WithWorkers goroutines.
//
// The last axis is the collection's lifetime — whether to rebuild the
// prepared state per run, persist it, or serve it (packages corpus and
// server):
//
//	How long does the collection live?
//	├── one process, one join        → the Join options above; the
//	│                                   transient index is built and
//	│                                   dropped inside the call
//	├── one process, evolving        → corpus.New(WithHistogramIndex());
//	│     (adds/deletes/replaces       Add/Delete/Replace keep the
//	│      between joins)              posting lists in sync, and
//	│                                   every join reuses the prepared trees
//	├── many processes, read-mostly  → the same corpus, plus Save at
//	│     (batch jobs, a fleet          build time and Load at start:
//	│      that shares one build)       trees and label ids come back
//	│                                    in O(bytes), the posting lists
//	│                                    are rebuilt from the label ids,
//	│                                    Corpus.Engine + Warm derive the
//	│                                    rest, so the first join pays
//	│                                    only GTED
//	├── many processes, mutating     → corpus.Open instead of Load: a
//	│     (crashes must lose            write-ahead log records every
//	│      nothing acknowledged)        mutation before it returns and
//	│                                    replays over the snapshot at
//	│                                    startup; Checkpoint compacts
//	├── other services are the      → cmd/tedd (package server): the
//	│     callers (HTTP clients,       corpus behind a JSON API with
//	│     load balancers, probes)      admission control, WAL-durable
//	│                                   mutations and graceful drain
//	└── one machine is not enough   → more tedd processes:
//	      ├── compute-bound joins     → tedd workers, each on its own
//	      │     (cores are the limit)    copy of one snapshot, behind a
//	      │                              gateway (tedd -cluster-workers):
//	      │                              position ranges over the HTTP
//	      │                              API, down and dying workers
//	      │                              skipped, the single-node match
//	      │                              set exactly
//	      └── read-bound serving      → tedd -follow replicas (package
//	            (traffic is the limit)   cluster): ship the primary's
//	                                     checkpoint, tail its WAL over
//	                                     HTTP, serve reads with a
//	                                     staleness guard; writes 403
//
// Persist when the per-tree work is paid more than once per build:
// restarts, repeated batch jobs over one collection, or any fan-out
// where workers can open copies of one snapshot instead of each
// re-parsing and re-indexing the trees. Rebuild when trees are joined once and discarded —
// the codec's bytes buy nothing a dropped process would not also drop.
// Open (rather than Load) whenever mutations happen between Saves and a
// crash must not lose them; serve with tedd when the callers are not Go
// code.
//
// Served joins and top-k scans then come in two response shapes. The
// buffered endpoints (/v1/join, /v1/topk) return one JSON document; the
// streaming ones (/v1/join/stream, /v1/topk/stream) emit
// newline-delimited JSON — one match per line, flushed as the engine
// finds it, closed by a terminal stats record. The two shapes carry the
// identical match multiset at equal threshold (pinned by test); they
// differ only in delivery:
//
//	How should results come back?
//	├── bounded result set, simplest caller → /v1/join, /v1/topk —
//	│                                          one JSON body
//	├── first matches matter (pipelines,    → /v1/join/stream — matches
//	│    progress UIs)                         flush as found, so
//	│                                          time-to-first-match beats
//	│                                          the buffered total
//	└── caller may stop early or disconnect → the stream endpoints: take
//	                                           the matches so far and
//	                                           close; on every route,
//	                                           disconnecting stops the
//	                                           kernel inside its pair
//
// Whatever is served is also checked over HTTP: package load (and its
// CLI cmd/tedload) drives a running tedd with a deterministic workload
// mix and fails on any wrong answer, which is the gate of the smoke
// scripts. Latency and throughput are measured by the end-to-end
// benchmark in benchmark/, whose workloads and metrics BENCHMARK.json
// declares.
package ted
