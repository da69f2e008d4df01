package server

// The wire types of the JSON API. They are exported so Go clients (and
// the tedbench serve experiment, and the CI smoke script's expectations)
// can marshal requests and unmarshal responses without restating the
// schema.

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
// matches (the server's own cap applies on top; 0 means server
// default).
type JoinRequest struct {
	Tau   float64 `json:"tau"`
	Mode  string  `json:"mode,omitempty"`
	Q     int     `json:"q,omitempty"`
	Limit int     `json:"limit,omitempty"`
}

// JoinMatch is one join result pair, by stored tree IDs (I < J).
type JoinMatch struct {
	I    int64   `json:"i"`
	J    int64   `json:"j"`
	Dist float64 `json:"dist"`
}

// JoinStats is the server-side accounting of one join call.
type JoinStats struct {
	Candidates    int   `json:"candidates"`
	LowerPruned   int   `json:"lower_pruned"`
	UpperAccepted int   `json:"upper_accepted"`
	ExactComputed int   `json:"exact_computed"`
	Subproblems   int64 `json:"subproblems"`
	// DP cells the exact stage skipped under the threshold cutoff, the
	// subset of those skipped as whole ranges by the structural band,
	// and keyroot subproblem DPs the band refused outright.
	PrunedSubproblems int64 `json:"pruned_subproblems"`
	BandSkippedCells  int64 `json:"band_skipped_cells"`
	PrunedKeyroots    int64 `json:"pruned_keyroots"`
	// DP rows materialized band-compressed and total row cells
	// materialized (×8 = bytes of row storage streamed) by the exact
	// stage.
	CompressedRows int64  `json:"compressed_rows"`
	RowCells       int64  `json:"row_cells"`
	Mode           string `json:"mode"`
	ElapsedMS      int64  `json:"elapsed_ms"`
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
// Query.
type TopKRequest struct {
	Query TreeRef `json:"query"`
	K     int     `json:"k"`
}

// TopKMatch is one top-k result: the subtree rooted at postorder id
// Root of stored tree Tree, at edit distance Dist from the query.
type TopKMatch struct {
	Tree int64   `json:"tree"`
	Root int     `json:"root"`
	Dist float64 `json:"dist"`
}

// TopKStats is the server-side accounting of one top-k call: the DP
// cost of the scan and the cells/keyroots its shrinking cutoff pruned.
type TopKStats struct {
	Subproblems       int64 `json:"subproblems"`
	PrunedSubproblems int64 `json:"pruned_subproblems"`
	BandSkippedCells  int64 `json:"band_skipped_cells"`
	PrunedKeyroots    int64 `json:"pruned_keyroots"`
	CompressedRows    int64 `json:"compressed_rows"`
	RowCells          int64 `json:"row_cells"`
	ElapsedMS         int64 `json:"elapsed_ms"`
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
// served (stored and ad-hoc alike — see batch.Engine.PrepareQuery), so
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
	// Cumulative DP pruning over every served join's exact stage since
	// boot: cells skipped under the threshold cutoff, the subset skipped
	// as whole ranges by the structural band (the rest are keyroot DPs
	// priced as size products), and keyroot subproblem DPs the band
	// refused outright.
	PrunedSubproblems int64 `json:"pruned_subproblems"`
	BandSkippedCells  int64 `json:"band_skipped_cells"`
	PrunedKeyroots    int64 `json:"pruned_keyroots"`
	// Cumulative band-compressed rows and total row cells materialized
	// (×8 = bytes of row storage streamed) by the same exact stages.
	CompressedRows int64 `json:"compressed_rows"`
	RowCells       int64 `json:"row_cells"`
	// Replication position of this server's own write-ahead log (absent
	// for corpora without one): the log generation and how many records
	// it holds. Followers tail GET /v1/wal from such a position.
	WALGen string `json:"wal_gen,omitempty"`
	WALSeq int    `json:"wal_seq,omitempty"`
	// ReadOnly marks a replica: mutations get 403.
	ReadOnly bool `json:"read_only,omitempty"`
	// Replication is the follower-side lag gauge, present only on
	// replicas (servers started with WithReplica).
	Replication *ReplicationStats `json:"replication,omitempty"`
	// ClusterWorkers is the number of distributed join workers this
	// server proxies heavy queries to (absent when serving locally).
	ClusterWorkers int `json:"cluster_workers,omitempty"`
}

// ReplicationStats is a replica's view of its own convergence: the
// primary it follows, the log position it has applied through, the
// primary's last announced position, and the lag between them.
// StalenessMS is how long ago the replica last knew it was fully caught
// up — the quantity the max-staleness read guard bounds.
type ReplicationStats struct {
	Primary         string `json:"primary"`
	Gen             string `json:"gen"`
	AppliedSeq      int    `json:"applied_seq"`
	PrimarySeq      int    `json:"primary_seq"`
	Lag             int    `json:"lag"`
	Records         int64  `json:"records"`
	CheckpointShips int64  `json:"checkpoint_ships"`
	StalenessMS     int64  `json:"staleness_ms"`
	LastErr         string `json:"last_err,omitempty"`
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
