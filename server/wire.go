package server

// The wire types of the JSON API. They are exported so Go clients (the
// benchmark and tedload among them) can marshal requests and unmarshal
// responses without restating the schema.

import (
	"repro/cluster"
	"repro/internal/gted"
)

// TreeRef names a tree in a request: exactly one of ID (a stored tree)
// or Tree (an ad-hoc tree in bracket notation) must be set.
type TreeRef struct {
	ID   *int64 `json:"id,omitempty"`
	Tree string `json:"tree,omitempty"`
}

// DistanceRequest asks for the exact edit distance between two trees.
type DistanceRequest struct {
	F TreeRef `json:"f"`
	G TreeRef `json:"g"`
}

// DistanceResponse carries the exact distance.
type DistanceResponse struct {
	Dist float64 `json:"dist"`
}

// DistanceBoundedRequest asks the threshold question "is the distance
// at most tau?".
type DistanceBoundedRequest struct {
	F   TreeRef `json:"f"`
	G   TreeRef `json:"g"`
	Tau float64 `json:"tau"`
}

// DistanceBoundedResponse: Within reports whether the distance is ≤ tau;
// when true, Dist is the exact distance, otherwise Dist is a lower
// bound no smaller than tau.
type DistanceBoundedResponse struct {
	Dist   float64 `json:"dist"`
	Within bool    `json:"within"`
}

// JoinRequest asks for the similarity self-join of the stored corpus:
// all unordered pairs of stored trees at distance below Tau. Mode picks
// the candidate generator ("auto", "enumerate", "histogram", "pqgram";
// default auto), Q the pq-gram base length, Limit caps the returned
// matches (the server's own cap of 10,000 applies on top; 0 means that
// cap). Range, if set, restricts the join to the pairs whose second
// tree sits in that range.
type JoinRequest struct {
	Tau   float64 `json:"tau"`
	Mode  string  `json:"mode,omitempty"`
	Q     int     `json:"q,omitempty"`
	Limit int     `json:"limit,omitempty"`
	Range *Range  `json:"range,omitempty"`
}

// Range is the positions [Lo, Hi) of the corpus's stored trees in
// ascending ID order, 0 ≤ Lo ≤ Hi; positions past the last tree are
// empty. A join or top-k request that carries one evaluates only the
// trees in the range (the probe side J of a join) and always runs on
// the local corpus, also on a gateway. It is how a gateway deals a
// request to its workers: the per-range answers over a partition of the
// positions merge into exactly the whole corpus's answer, provided every
// worker holds the same corpus (see StatsResponse.Fingerprint).
// Fingerprint, if set, pins the range to that corpus: a server whose
// fingerprint differs before or after the evaluation answers 409 (a
// stream already under way ends without its done record). A gateway
// sets it to the fingerprint its workers reported.
type Range struct {
	Lo          int    `json:"lo"`
	Hi          int    `json:"hi"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// JoinMatch is one join result pair, by stored tree IDs (I < J).
type JoinMatch struct {
	I    int64   `json:"i"`
	J    int64   `json:"j"`
	Dist float64 `json:"dist"`
}

// JoinStats is the server-side accounting of one join call. The
// embedded kernel counters of the exact stage (gted.Counters) appear in
// the JSON object under their own names: subproblems, the DP cells the
// threshold cutoff pruned (pruned_subproblems, band_skipped_cells), the
// pairs it refused at their root before any DP (pruned_keyroots), the
// rows and row cells materialized (compressed_rows, row_cells),
// spf_calls and max_live_rows.
type JoinStats struct {
	Candidates    int `json:"candidates"`
	LowerPruned   int `json:"lower_pruned"`
	UpperAccepted int `json:"upper_accepted"`
	ExactComputed int `json:"exact_computed"`
	gted.Counters
	Mode      string `json:"mode"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// JoinResponse: Count is the full match count; Matches holds at most
// the requested/allowed limit and Truncated reports whether matches
// were dropped to honor it.
type JoinResponse struct {
	Matches   []JoinMatch `json:"matches"`
	Count     int         `json:"count"`
	Truncated bool        `json:"truncated,omitempty"`
	Stats     JoinStats   `json:"stats"`
}

// TopKRequest asks for the K subtrees of the stored corpus closest to
// Query; K must be in [1, 100]. Range, if set, restricts the scan to the
// stored trees in that range.
type TopKRequest struct {
	Query TreeRef `json:"query"`
	K     int     `json:"k"`
	Range *Range  `json:"range,omitempty"`
}

// TopKMatch is one top-k result: the subtree rooted at postorder id
// Root of stored tree Tree, at edit distance Dist from the query.
type TopKMatch struct {
	Tree int64   `json:"tree"`
	Root int     `json:"root"`
	Dist float64 `json:"dist"`
}

// TopKStats is the server-side accounting of one top-k call: the
// kernel counters of the scan (as in JoinStats, including the cells its
// shrinking cutoff pruned; a top-k scan never refuses a pair, so
// pruned_keyroots reads 0) and its elapsed time.
type TopKStats struct {
	gted.Counters
	ElapsedMS int64 `json:"elapsed_ms"`
}

// TopKResponse carries the matches sorted by distance (ties toward
// smaller (tree, root)) and the scan's pruning stats.
type TopKResponse struct {
	Matches []TopKMatch `json:"matches"`
	Stats   TopKStats   `json:"stats"`
}

// JoinStreamRecord is one NDJSON line of POST /v1/join/stream: exactly
// one of Match (a result, flushed as found, in completion order) or
// Done (the terminal record) is set. A stream without a Done line was
// cut short — by a client disconnect or a server failure mid-stream —
// and must not be trusted as complete.
type JoinStreamRecord struct {
	Match *JoinMatch      `json:"match,omitempty"`
	Done  *JoinStreamDone `json:"done,omitempty"`
}

// JoinStreamDone terminates a join stream: the full match count (also
// counting matches beyond the limit, which are dropped, flagged by
// Truncated), and the same stats block the buffered endpoint returns.
type JoinStreamDone struct {
	Count     int       `json:"count"`
	Truncated bool      `json:"truncated,omitempty"`
	Stats     JoinStats `json:"stats"`
}

// TopKStreamRecord is one NDJSON line of POST /v1/topk/stream: exactly
// one of Match or Done is set. Matches arrive in final result order
// (top-k answers are only sound once the whole corpus is scanned, so
// the lines are written after the scan; the framing still delivers
// them one by one and a disconnect mid-scan cancels the engine work).
type TopKStreamRecord struct {
	Match *TopKMatch      `json:"match,omitempty"`
	Done  *TopKStreamDone `json:"done,omitempty"`
}

// TopKStreamDone terminates a top-k stream.
type TopKStreamDone struct {
	Stats TopKStats `json:"stats"`
}

// TreeRequest carries a tree for POST/PUT /v1/trees.
type TreeRequest struct {
	Tree string `json:"tree"`
}

// TreeResponse names a stored tree; GET additionally returns its
// bracket serialization.
type TreeResponse struct {
	ID   int64  `json:"id"`
	Tree string `json:"tree,omitempty"`
}

// StatsResponse is the GET /v1/stats payload. Labels is the size of the
// shared label table: it grows with the union of distinct labels ever
// served (stored and ad-hoc alike — see batch.Engine.Prepare), so
// a steadily climbing value under high-cardinality query labels is the
// signal to cap or normalize request labels upstream.
type StatsResponse struct {
	Trees       int `json:"trees"`
	Labels      int `json:"labels"`
	Workers     int `json:"workers"`
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
	// HeavySlots and TenantQuota describe the admission gate's shape:
	// joins/top-k (the heavy class) may hold at most HeavySlots of the
	// MaxInFlight slots, and any one tenant at most TenantQuota.
	HeavySlots  int   `json:"heavy_slots"`
	TenantQuota int   `json:"tenant_quota"`
	Admitted    int64 `json:"admitted"`
	Rejected    int64 `json:"rejected"`
	// Shed counts admission rejections due to capacity (queue-timeout
	// 503s) alone — a subset of Rejected, which also counts drain-mode
	// refusals. A load run cross-checks its observed 503s against this.
	Shed int64 `json:"shed"`
	// Abandoned counts requests whose client disconnected while queued
	// for admission: they consumed queue time but got no response and no
	// slot, and without this counter they'd be invisible — admitted +
	// shed would undercount arrivals and a load harness could never
	// reconcile exactly.
	Abandoned int64 `json:"abandoned"`
	Draining  bool  `json:"draining"`
	// Per-tenant admission outcomes, keyed by X-Tenant (missing header →
	// "default"; beyond 256 distinct tenants, new names aggregate under
	// "~other"). Absent until the first admission decision.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// The kernel counters of every completed join and top-k request
	// since boot, merged as their stats blocks report them: every
	// counter sums, max_live_rows is the peak of any one run. A request
	// cut short by its client adds nothing.
	gted.Counters
	// Replication position of this server's own write-ahead log (absent
	// for corpora without one): the log generation and how many records
	// it holds. Followers tail GET /v1/wal from such a position.
	WALGen string `json:"wal_gen,omitempty"`
	WALSeq int    `json:"wal_seq,omitempty"`
	// ReadOnly marks a replica: mutations get 403.
	ReadOnly bool `json:"read_only,omitempty"`
	// Replication is the follower-side lag gauge, present only on
	// replicas (servers started with WithReplica).
	Replication *cluster.FollowerStats `json:"replication,omitempty"`
	// ClusterWorkers is the number of workers this gateway fans joins
	// and top-k out to (absent when serving locally).
	ClusterWorkers int `json:"cluster_workers,omitempty"`
	// Fingerprint is a hash of the stored trees and their IDs, 16 hex
	// digits (corpus.Corpus.Fingerprint): servers that report the same
	// trees and fingerprint hold the same corpus, so a Range means the
	// same trees on each of them.
	Fingerprint string `json:"fingerprint"`
}

// TenantStats is one tenant's admission outcomes in /v1/stats.
type TenantStats struct {
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Abandoned int64 `json:"abandoned"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
