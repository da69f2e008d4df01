package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/batch"
	"repro/cluster"
	"repro/corpus"
	"repro/internal/gted"
	"repro/internal/tree"
)

// Server serves a corpus over HTTP. Construct with New; the zero value
// is not usable. A Server is an http.Handler: mount it on any
// http.Server (cmd/tedd does exactly that).
type Server struct {
	c *corpus.Corpus
	e *batch.Engine

	mux *http.ServeMux

	// Admission gate (see admission.go): per-tenant quotas and two
	// priority classes over one bounded slot pool; arrivals that do not
	// fit wait up to queueTimeout for a fitting slot.
	gate         *gate
	maxInFlight  int
	heavySlots   int
	tenantQuota  int
	queueTimeout time.Duration
	draining     atomic.Bool
	admitted     atomic.Int64
	rejected     atomic.Int64
	shed         atomic.Int64
	abandoned    atomic.Int64
	byTenant     tenants
	admitHook    func()

	// The cumulative kernel counters of completed joins and top-k
	// requests (see StatsResponse), added by count.
	kernelMu sync.Mutex
	kernel   gted.Counters

	maxBody   int64
	maxNodes  int
	maxLabels int
	workers   int

	// Replica mode (see repl.go): mutations 403, reads optionally
	// guarded by the staleness bound, /v1/stats grows the replication
	// block.
	readOnly  bool
	maxStale  time.Duration
	staleness func() time.Duration
	replStats func() cluster.FollowerStats

	// Gateway mode (see WithClusterWorkers, fleet.go): joins and top-k
	// without a range fan out to these workers instead of evaluating
	// locally.
	fleet *fleet
}

// Per-request caps: the largest k a top-k request may ask for, and the
// most matches one join response carries (a request may ask for fewer
// via Limit).
const (
	maxK       = 100
	maxMatches = 10000
)

// Option configures New.
type Option func(*Server)

// WithWorkers sets the engine worker-pool size (default: all cores, as
// batch.New).
func WithWorkers(n int) Option {
	return func(s *Server) { s.workers = n }
}

// WithMaxInFlight caps concurrently served requests (default 2× the
// worker count). Arrivals beyond the cap queue briefly, then get 503.
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxInFlight = n
		}
	}
}

// WithHeavySlots caps how many in-flight slots heavy requests — joins,
// top-k and their streaming variants — may hold at once (default: half
// the in-flight cap, at least 1). The remainder is reachable only by
// point lookups, so one tenant's heavy joins can never occupy every
// slot. Values are clamped to [1, max-in-flight].
func WithHeavySlots(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.heavySlots = n
		}
	}
}

// WithTenantQuota caps how many in-flight slots one tenant (the
// X-Tenant request header; missing → "default") may hold at once
// (default: no per-tenant cap beyond the pool itself). Values are
// clamped to [1, max-in-flight].
func WithTenantQuota(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.tenantQuota = n
		}
	}
}

// WithQueueTimeout bounds how long an arrival may wait for an admission
// slot before being refused with 503 (default 2s; 0 refuses
// immediately when full).
func WithQueueTimeout(d time.Duration) Option {
	return func(s *Server) { s.queueTimeout = d }
}

// WithMaxBodyBytes caps request body sizes (default 1 MiB). Oversized
// bodies get 413.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBody = n }
}

// WithMaxNodes caps the node count of ad-hoc request trees (default
// 4096). The binding constraint is DP memory, not CPU: one exact
// distance pair allocates O(n·m) bytes, 46–49 per subtree pair on
// TreeBank-like trees of 1,000 and 2,000 nodes (the strategy DP's
// tables and the GTED arena), so two trees at a cap of c cost up to
// ~49c² bytes on one worker — ~820 MB at the default, ~210 GB at 1<<16.
// Raise it only with the arithmetic in hand.
func WithMaxNodes(n int) Option {
	return func(s *Server) { s.maxNodes = n }
}

// WithMaxLabels bounds the shared label table (default 1<<20 distinct
// labels). Ad-hoc query labels are interned permanently (see
// batch.Engine.Prepare), so without a bound a client sending fresh
// random labels grows the process forever; at the cap, requests
// carrying ad-hoc trees are refused with 503 (stored-id requests keep
// working) instead of the daemon eventually dying of memory.
func WithMaxLabels(n int) Option {
	return func(s *Server) { s.maxLabels = n }
}

// WithAdmitHook installs f to run on every admitted request, after the
// admission slot is acquired and before the handler. A test hook: load
// and admission tests inject a delay here to hold slots deterministically
// long enough to force queueing and shedding. Nil (the default) costs
// nothing.
func WithAdmitHook(f func()) Option {
	return func(s *Server) { s.admitHook = f }
}

// WithReplica puts the server in read replica mode: mutation endpoints
// refuse with 403, stats reports the replication telemetry from stats
// and staleness (both typically backed by a cluster.Follower), and —
// when maxStaleness is positive — read endpoints refuse with 503
// whenever staleness() exceeds it, so a partitioned replica degrades
// loudly instead of serving arbitrarily old data.
func WithReplica(stats func() cluster.FollowerStats, staleness func() time.Duration, maxStaleness time.Duration) Option {
	return func(s *Server) {
		s.readOnly = true
		s.replStats = stats
		s.staleness = staleness
		s.maxStale = maxStaleness
	}
}

// WithClusterWorkers makes the server a gateway (see the package doc):
// joins and top-k queries without a range, buffered and streamed alike,
// are dealt in position ranges to the Servers at the given base URLs
// ("http://host:port"), which must hold the same corpus, and merged,
// instead of evaluating on the local corpus. Point lookups, mutations
// and ranged requests still serve locally. The answers equal the
// single-node ones; a worker whose corpus changes while it serves a
// request fails it with 502 instead — keeping the workers in sync is the
// operator's contract (see scripts/cluster_smoke.sh).
func WithClusterWorkers(urls []string) Option {
	return func(s *Server) {
		if len(urls) > 0 {
			s.fleet = &fleet{urls: append([]string(nil), urls...)}
		}
	}
}

// New builds a server over c. The engine is corpus-attached
// (corpus.Corpus.Engine), so every stored tree prepares from its stored
// label ids; call Warm before accepting traffic to prepare them all up
// front.
func New(c *corpus.Corpus, opts ...Option) *Server {
	s := &Server{
		c:            c,
		queueTimeout: 2 * time.Second,
		maxBody:      1 << 20,
		maxNodes:     4096,
		maxLabels:    1 << 20,
	}
	for _, o := range opts {
		o(s)
	}
	var eopts []batch.Option
	if s.workers > 0 {
		eopts = append(eopts, batch.WithWorkers(s.workers))
	}
	s.e = c.Engine(eopts...)
	if s.maxInFlight <= 0 {
		s.maxInFlight = 2 * s.e.Workers()
	}
	if s.heavySlots <= 0 {
		s.heavySlots = (s.maxInFlight + 1) / 2
	}
	s.gate = newGate(s.maxInFlight, s.heavySlots, s.tenantQuota)
	s.maxInFlight = s.gate.capTotal
	s.heavySlots = s.gate.heavyCap
	s.tenantQuota = s.gate.tenantCap
	if s.fleet != nil {
		s.fleet = newFleet(s.fleet.urls, s.heavySlots)
	}
	s.routes()
	return s
}

// Engine returns the server's corpus-attached engine (for warm-up,
// tests, and in-process cross-checks).
func (s *Server) Engine() *batch.Engine { return s.e }

// Warm prepares every stored tree for the server's engine, so the first
// request pays only for distance computations. Call once at startup,
// before accepting traffic.
func (s *Server) Warm() { s.c.Warm(s.e) }

// Drain puts the server into drain mode: every subsequent /v1 request
// and /healthz probe gets 503, while requests already admitted run to
// completion (pair with http.Server.Shutdown, which waits for them).
// Draining is one-way; restart the process to serve again.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// MaxInFlight reports the admission gate's capacity.
func (s *Server) MaxInFlight() int { return s.maxInFlight }

// HeavySlots reports how many slots heavy requests (join/topk and their
// streaming variants) may hold at once.
func (s *Server) HeavySlots() int { return s.heavySlots }

// TenantQuota reports how many slots one tenant may hold at once.
func (s *Server) TenantQuota() int { return s.tenantQuota }

// The two admission priority classes: point lookups stay admissible
// even when every heavy slot is occupied by joins.
const (
	classPoint = false
	classHeavy = true
)

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/wal", s.handleWAL)
	s.mux.HandleFunc("GET /v1/checkpoint", s.handleCheckpoint)
	s.mux.Handle("POST /v1/distance", s.admit(classPoint, s.fresh(s.handleDistance)))
	s.mux.Handle("POST /v1/distance-bounded", s.admit(classPoint, s.fresh(s.handleDistanceBounded)))
	s.mux.Handle("POST /v1/join", s.admit(classHeavy, s.fresh(s.handleJoin(false))))
	s.mux.Handle("POST /v1/join/stream", s.admit(classHeavy, s.fresh(s.handleJoin(true))))
	s.mux.Handle("POST /v1/topk", s.admit(classHeavy, s.fresh(s.handleTopK(false))))
	s.mux.Handle("POST /v1/topk/stream", s.admit(classHeavy, s.fresh(s.handleTopK(true))))
	s.mux.Handle("POST /v1/trees", s.admit(classPoint, s.mutating(s.handleAddTree)))
	s.mux.Handle("GET /v1/trees/{id}", s.admit(classPoint, s.fresh(s.handleGetTree)))
	s.mux.Handle("PUT /v1/trees/{id}", s.admit(classPoint, s.mutating(s.handlePutTree)))
	s.mux.Handle("DELETE /v1/trees/{id}", s.admit(classPoint, s.mutating(s.handleDeleteTree)))
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// admit is the admission gate: a fitting slot now, a fitting slot
// within queueTimeout, or a 503 with Retry-After. heavy selects the
// priority class (see the gate doc in admission.go).
func (s *Server) admit(heavy bool, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.reject(w, "draining")
			return
		}
		// Buffer the body before queueing, for two reasons. A slot is
		// never held while a slow client trickles bytes in — the hosting
		// http.Server's read deadlines (cmd/tedd sets them) bound the
		// pre-admission read instead. And an HTTP/1 server only notices a
		// client disconnect once the request body is consumed: without
		// this, a client hanging up while queued would be undetectable —
		// the waiter would burn its whole queue timeout for nobody and be
		// miscounted as shed instead of abandoned.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Sprintf("read request body: %v", err))
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		tenant := tenantOf(r)
		switch s.gate.acquire(r.Context(), tenant, heavy, s.queueTimeout) {
		case gateTimedOut:
			// A capacity shed, distinct from drain rejections: the load
			// harness reads this counter to cross-check that every 503
			// it observed was accounted for server-side.
			s.shed.Add(1)
			s.byTenant.get(tenant).shed.Add(1)
			s.reject(w, "over capacity")
			return
		case gateAbandoned:
			// The client disconnected while queued: no response goes
			// anywhere, but the outcome is still counted — admitted +
			// rejected + abandoned must cover every arrival, or a load
			// harness's exact reconciliation breaks.
			s.abandoned.Add(1)
			s.byTenant.get(tenant).abandoned.Add(1)
			return
		}
		defer s.gate.release(tenant, heavy)
		if s.draining.Load() {
			// Drained while queued: the point of draining is that no new
			// engine work starts.
			s.reject(w, "draining")
			return
		}
		s.admitted.Add(1)
		s.byTenant.get(tenant).admitted.Add(1)
		if s.admitHook != nil {
			s.admitHook()
		}
		h(w, r)
	})
}

func (s *Server) reject(w http.ResponseWriter, why string) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, why)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats returns the counters /v1/stats serves, without the HTTP round
// trip — the hook in-process harnesses and tests use to reconcile
// client-observed 503s against the server's own shed accounting.
func (s *Server) Stats() StatsResponse {
	trees, fp := s.fingerprint()
	st := StatsResponse{
		Trees:       trees,
		Labels:      s.e.LabelTable().Len(),
		Workers:     s.e.Workers(),
		InFlight:    s.gate.inFlight(),
		MaxInFlight: s.maxInFlight,
		HeavySlots:  s.heavySlots,
		TenantQuota: s.tenantQuota,
		Admitted:    s.admitted.Load(),
		Rejected:    s.rejected.Load(),
		Shed:        s.shed.Load(),
		Abandoned:   s.abandoned.Load(),
		Tenants:     s.byTenant.snapshot(),
		Draining:    s.draining.Load(),

		ReadOnly:    s.readOnly,
		Fingerprint: fp,
	}
	if s.fleet != nil {
		st.ClusterWorkers = len(s.fleet.urls)
	}
	s.kernelMu.Lock()
	st.Counters = s.kernel
	s.kernelMu.Unlock()
	if s.c.Replicable() {
		pos := s.c.ReplState()
		st.WALGen, st.WALSeq = pos.Gen, pos.Seq
	}
	if s.replStats != nil {
		rs := s.replStats()
		st.Replication = &rs
	}
	return st
}

// fingerprint is the corpus's tree count and fingerprint as /v1/stats
// reports them.
func (s *Server) fingerprint() (int, string) {
	trees, fp := s.c.Fingerprint()
	return trees, fmt.Sprintf("%016x", fp)
}

// holds returns a 409 *statusError when r is pinned to a fingerprint
// the corpus does not have: the gateway that dealt r probed another
// corpus, and the positions it dealt name other trees here. A ranged
// request is checked before it is evaluated (span) and again after, so
// a mutation landing in between cannot slip another corpus's answer
// into the gateway's merge.
func (s *Server) holds(r *Range) error {
	if r == nil || r.Fingerprint == "" {
		return nil
	}
	if _, fp := s.fingerprint(); fp != r.Fingerprint {
		return &statusError{status: http.StatusConflict, msg: fmt.Sprintf("corpus fingerprint is %s, the range was dealt over %s", fp, r.Fingerprint)}
	}
	return nil
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	var req DistanceRequest
	if !decode(w, r, &req) {
		return
	}
	f, ok := s.resolve(w, req.F, "f")
	if !ok {
		return
	}
	g, ok := s.resolve(w, req.G, "g")
	if !ok {
		return
	}
	if d, err := s.e.DistanceContext(r.Context(), f, g); !failed(r.Context(), w, nil, err) {
		writeJSON(w, http.StatusOK, DistanceResponse{Dist: d})
	}
}

func (s *Server) handleDistanceBounded(w http.ResponseWriter, r *http.Request) {
	var req DistanceBoundedRequest
	if !decode(w, r, &req) {
		return
	}
	if !validTau(req.Tau) {
		writeError(w, http.StatusBadRequest, "tau must be a non-negative number")
		return
	}
	f, ok := s.resolve(w, req.F, "f")
	if !ok {
		return
	}
	g, ok := s.resolve(w, req.G, "g")
	if !ok {
		return
	}
	if d, within, err := s.e.DistanceBoundedContext(r.Context(), f, g, req.Tau); !failed(r.Context(), w, nil, err) {
		writeJSON(w, http.StatusOK, DistanceBoundedResponse{Dist: d, Within: within})
	}
}

// handleJoin serves POST /v1/join (buffered) and /v1/join/stream. Both
// validate and evaluate the same way — on the fleet when the server is a
// gateway and the request carries no range, else on the local corpus —
// under the request context, and differ only in framing: the buffered
// response carries the first limit matches in (I, J) order, the stream
// one NDJSON line per match in completion order and a done record (see
// stream.go).
func (s *Server) handleJoin(stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		if !decode(w, r, &req) {
			return
		}
		if !validTau(req.Tau) {
			writeError(w, http.StatusBadRequest, "tau must be a non-negative number")
			return
		}
		mode, err := batch.ParseIndexMode(req.Mode)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Q < 0 || req.Q > 16 {
			writeError(w, http.StatusBadRequest, "q must be in [0, 16]")
			return
		}
		lo, hi, ok := s.span(w, req.Range)
		if !ok {
			return
		}
		limit := maxMatches
		if req.Limit > 0 && req.Limit < limit {
			limit = req.Limit
		}
		req.Limit = limit

		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		var (
			out     *ndjson
			ms      []corpus.Match
			written int
			count   int
			st      batch.JoinStats
		)
		if stream {
			out = newNDJSON(w, cancel)
		}
		emit := func(m corpus.Match) {
			if !stream {
				ms = append(ms, m)
			} else if written < limit {
				// Past the limit the join keeps running (the done record
				// reports the true count, as the buffered response does)
				// but no more lines are written.
				written++
				out.write(JoinStreamRecord{Match: &JoinMatch{I: int64(m.I), J: int64(m.J), Dist: m.Dist}})
			}
		}
		if s.fleet != nil && req.Range == nil {
			st, count, err = s.fleet.join(ctx, r.Header, req, emit)
		} else {
			st, err = s.c.JoinRangeStream(ctx, s.e, req.Tau, batch.JoinOptions{Mode: mode, Q: req.Q}, lo, hi, func(m corpus.Match) {
				count++
				emit(m)
			})
			if err == nil {
				err = s.holds(req.Range)
			}
		}
		if failed(ctx, w, out, err) {
			return
		}
		s.count(st.Counters)
		if stream {
			out.write(JoinStreamRecord{Done: &JoinStreamDone{Count: count, Truncated: count > limit, Stats: joinStats(st)}})
			return
		}
		slices.SortFunc(ms, func(a, b corpus.Match) int {
			return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
		})
		resp := JoinResponse{Count: count, Truncated: count > limit, Stats: joinStats(st)}
		resp.Matches = make([]JoinMatch, min(len(ms), limit))
		for i := range resp.Matches {
			resp.Matches[i] = JoinMatch{I: int64(ms[i].I), J: int64(ms[i].J), Dist: ms[i].Dist}
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleTopK serves POST /v1/topk (buffered) and /v1/topk/stream, one
// evaluation — fleet or local corpus, as in handleJoin — in either
// framing. Top-k results are only sound once the whole corpus is
// scanned, so even the stream writes its lines after the scan; its value
// is the framing and the cancellation path. A gateway forwards the query
// reference to its workers unresolved: a stored id names a tree of their
// corpus, and they reject a malformed query.
func (s *Server) handleTopK(stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req TopKRequest
		if !decode(w, r, &req) {
			return
		}
		if req.K < 1 || req.K > maxK {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("k must be in [1, %d]", maxK))
			return
		}
		lo, hi, ok := s.span(w, req.Range)
		if !ok {
			return
		}
		fan := s.fleet != nil && req.Range == nil
		var q *batch.PreparedTree
		if !fan {
			if q, ok = s.resolve(w, req.Query, "query"); !ok {
				return
			}
		}

		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		var out *ndjson
		if stream {
			out = newNDJSON(w, cancel)
		}
		start := time.Now()
		ms := []TopKMatch{}
		emit := func(m corpus.CrossMatch) {
			tm := TopKMatch{Tree: int64(m.Tree), Root: m.Root, Dist: m.Dist}
			if stream {
				out.write(TopKStreamRecord{Match: &tm})
			} else {
				ms = append(ms, tm)
			}
		}
		var (
			st  batch.Stats
			err error
		)
		if fan {
			st, err = s.fleet.topK(ctx, r.Header, req, emit)
		} else {
			var cms []corpus.CrossMatch
			cms, st, err = s.c.TopKRange(ctx, s.e, q, req.K, lo, hi)
			for _, m := range cms {
				emit(m)
			}
			if err == nil {
				err = s.holds(req.Range)
			}
		}
		if failed(ctx, w, out, err) {
			return
		}
		s.count(st)
		stats := TopKStats{Counters: st, ElapsedMS: time.Since(start).Milliseconds()}
		if stream {
			out.write(TopKStreamRecord{Done: &TopKStreamDone{Stats: stats}})
			return
		}
		writeJSON(w, http.StatusOK, TopKResponse{Matches: ms, Stats: stats})
	}
}

// failed reports whether an evaluation did not complete, answering what
// can still be answered. A cancelled ctx means the client hung up or a
// stream write failed: there is no one to answer. A *statusError gets
// its status — a 503 with Retry-After, as the admission gate sheds —
// and any other fleet failure 502; once a stream's header is out, the
// missing done record is the answer. The counters of an incomplete run
// are not added to /v1/stats.
func failed(ctx context.Context, w http.ResponseWriter, out *ndjson, err error) bool {
	if err == nil && (out == nil || out.err == nil) {
		return false
	}
	if err != nil && out == nil && ctx.Err() == nil {
		status := http.StatusBadGateway
		var se *statusError
		if errors.As(err, &se) {
			status = se.status
		}
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err.Error())
	}
	return true
}

func (s *Server) handleAddTree(w http.ResponseWriter, r *http.Request) {
	var req TreeRequest
	if !decode(w, r, &req) {
		return
	}
	t, ok := s.parseTree(w, req.Tree, "tree")
	if !ok {
		return
	}
	id := s.c.Add(t)
	if !s.durable(w) {
		return
	}
	writeJSON(w, http.StatusCreated, TreeResponse{ID: int64(id)})
}

func (s *Server) handleGetTree(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	t, ok := s.c.Tree(corpus.ID(id))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no tree %d", id))
		return
	}
	writeJSON(w, http.StatusOK, TreeResponse{ID: id, Tree: t.String()})
}

func (s *Server) handlePutTree(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var req TreeRequest
	if !decode(w, r, &req) {
		return
	}
	t, ok := s.parseTree(w, req.Tree, "tree")
	if !ok {
		return
	}
	if !s.c.Replace(corpus.ID(id), t) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no tree %d", id))
		return
	}
	if !s.durable(w) {
		return
	}
	writeJSON(w, http.StatusOK, TreeResponse{ID: id})
}

func (s *Server) handleDeleteTree(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	if !s.c.Delete(corpus.ID(id)) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no tree %d", id))
		return
	}
	if !s.durable(w) {
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// durable syncs the write-ahead log before a mutation is acknowledged;
// a logging failure is a 500 (the mutation is applied in memory but its
// durability cannot be promised — the operator should treat the store
// as read-only and investigate).
func (s *Server) durable(w http.ResponseWriter) bool {
	if err := s.c.Sync(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return false
	}
	return true
}

// resolve turns a TreeRef into a PreparedTree: stored trees prepare
// through the corpus cache, ad-hoc trees request-scoped.
func (s *Server) resolve(w http.ResponseWriter, ref TreeRef, field string) (*batch.PreparedTree, bool) {
	switch {
	case ref.ID != nil && ref.Tree != "":
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%s: give id or tree, not both", field))
		return nil, false
	case ref.ID != nil:
		p, ok := s.c.Prepared(s.e, corpus.ID(*ref.ID))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("%s: no tree %d", field, *ref.ID))
			return nil, false
		}
		return p, true
	case ref.Tree != "":
		t, ok := s.parseTree(w, ref.Tree, field)
		if !ok {
			return nil, false
		}
		return s.c.PrepareQuery(s.e, t), true
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("%s: missing tree reference", field))
	return nil, false
}

func (s *Server) parseTree(w http.ResponseWriter, src, field string) (*tree.Tree, bool) {
	// The label-table circuit breaker: ad-hoc labels intern permanently,
	// so once the shared table reaches the cap, requests that could grow
	// it are refused — a bounded, observable failure (watch "labels" in
	// /v1/stats) instead of unbounded memory growth.
	if s.e.LabelTable().Len() >= s.maxLabels {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf(
			"label table at capacity (%d distinct labels); ad-hoc trees refused — query by stored id, or restart with a higher label cap", s.maxLabels))
		return nil, false
	}
	t, err := tree.ParseBracket(strings.TrimSpace(src))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%s: %v", field, err))
		return nil, false
	}
	if t.Len() > s.maxNodes {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%s: %d nodes exceeds the %d-node limit", field, t.Len(), s.maxNodes))
		return nil, false
	}
	return t, true
}

// decode parses one JSON body. admit has already read the body in full
// under the size cap (413 beyond it), so decode only rejects bad JSON.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || id < 0 {
		writeError(w, http.StatusBadRequest, "tree id must be a non-negative integer")
		return 0, false
	}
	return id, true
}

// validTau admits finite non-negative cutoffs and +Inf (JSON cannot
// carry Inf, but in-process callers can).
func validTau(tau float64) bool {
	return !math.IsNaN(tau) && tau >= 0
}

// span returns the positions a request covers, [lo, hi): its range, or
// every position when it has none. It answers 400 to a range with
// lo < 0 or hi < lo, and 409 to one pinned to another corpus (holds).
func (s *Server) span(w http.ResponseWriter, r *Range) (lo, hi int, ok bool) {
	switch {
	case r == nil:
		return 0, math.MaxInt, true
	case r.Lo < 0 || r.Hi < r.Lo:
		writeError(w, http.StatusBadRequest, "range must have 0 ≤ lo ≤ hi")
		return 0, 0, false
	}
	if err := s.holds(r); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return 0, 0, false
	}
	return r.Lo, r.Hi, true
}

func joinStats(st batch.JoinStats) JoinStats {
	return JoinStats{
		Candidates:    st.Comparisons,
		LowerPruned:   st.LowerPruned,
		UpperAccepted: st.UpperAccepted,
		ExactComputed: st.ExactComputed,
		Counters:      st.Counters,
		Mode:          st.Mode.String(),
		ElapsedMS:     st.Elapsed.Milliseconds(),
	}
}

// engine reads a worker's stats block back into the engine's form, as a
// gateway merges it: joinStats' inverse but for Elapsed, which the
// gateway measures itself. A worker names the mode as String does.
func (js JoinStats) engine() batch.JoinStats {
	mode, _ := batch.ParseIndexMode(js.Mode)
	return batch.JoinStats{
		Comparisons:   js.Candidates,
		LowerPruned:   js.LowerPruned,
		UpperAccepted: js.UpperAccepted,
		ExactComputed: js.ExactComputed,
		Counters:      js.Counters,
		Mode:          mode,
	}
}

// count adds a completed join's or top-k's kernel counters to the
// cumulative ones /v1/stats serves.
func (s *Server) count(c gted.Counters) {
	s.kernelMu.Lock()
	s.kernel.Merge(c)
	s.kernelMu.Unlock()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
