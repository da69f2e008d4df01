package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/batch"
	"repro/corpus"
)

// The streaming endpoints. POST /v1/join and /v1/topk buffer the whole
// result before the first response byte, so a join whose matches take
// seconds to accumulate gives the client nothing to work with until the
// last pair resolves — and a client that stops caring (timeout, user
// cancel) leaves the engine grinding to completion anyway. The /stream
// variants fix both ends: each result is one NDJSON line, flushed as it
// is found, and the request context is threaded down through
// corpus.JoinStream into the worker pool, so a disconnected client
// stops the engine at the next pair boundary instead of wasting the
// remaining work.
//
// Framing contract (see JoinStreamRecord / TopKStreamRecord): every
// line is a record carrying either a match or the terminal done record
// with the full stats block. The done record is written only after a
// complete run — a stream that ends without one was cut short and must
// not be treated as a complete result set.

// handleJoinStream is POST /v1/join/stream: handleJoin's match set (the
// streamed multiset is bit-identical at the same tau), delivered one
// NDJSON line per match in completion order.
func (s *Server) handleJoinStream(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !validTau(req.Tau) {
		writeError(w, http.StatusBadRequest, "tau must be a non-negative number")
		return
	}
	mode, ok := parseMode(req.Mode)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (auto | enumerate | histogram | pqgram)", req.Mode))
		return
	}
	if req.Q < 0 || req.Q > 16 {
		writeError(w, http.StatusBadRequest, "q must be in [0, 16]")
		return
	}
	limit := s.maxMatches
	if req.Limit > 0 && req.Limit < limit {
		limit = req.Limit
	}

	// r.Context() ends when the client disconnects; the explicit cancel
	// lets a write failure (the other disconnect signal — the kernel may
	// notice a dead peer only when we write) stop the engine too.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	var (
		count    int
		writeErr error
	)
	st, err := s.c.JoinStream(ctx, s.e, req.Tau, batch.JoinOptions{Mode: mode, Q: req.Q}, func(m corpus.Match) {
		count++
		if writeErr != nil || count > limit {
			// Past the limit the engine keeps running (the done record
			// reports the true count, as the buffered endpoint does) but
			// no more lines are written.
			return
		}
		rec := JoinStreamRecord{Match: &JoinMatch{I: int64(m.I), J: int64(m.J), Dist: m.Dist}}
		if writeErr = enc.Encode(rec); writeErr == nil {
			writeErr = rc.Flush()
		}
		if writeErr != nil {
			cancel()
		}
	})
	if err != nil || writeErr != nil {
		// Cut short — no done record; its absence is the incompleteness
		// signal. Its counters are not added: partial-run stats would
		// skew the cumulative /v1/stats trajectory.
		return
	}
	s.count(st.Counters)
	done := JoinStreamRecord{Done: &JoinStreamDone{Count: count, Truncated: count > limit, Stats: joinStats(st)}}
	if enc.Encode(done) == nil {
		rc.Flush()
	}
}

// handleTopKStream is POST /v1/topk/stream. Top-k results are only
// sound once the whole corpus is scanned, so unlike the join stream no
// line can be written early; the value here is the framing (one line
// per result plus an explicit done record) and the cancellation path —
// a client disconnect stops the scan between stored trees instead of
// paying for the rest of the corpus.
func (s *Server) handleTopKStream(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.K < 1 || req.K > s.maxK {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("k must be in [1, %d]", s.maxK))
		return
	}
	q, ok := s.resolve(w, req.Query, "query")
	if !ok {
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	start := time.Now()
	var writeErr error
	st, err := s.c.TopKAcrossStream(r.Context(), s.e, q, req.K, func(m corpus.CrossMatch) {
		if writeErr != nil {
			return
		}
		rec := TopKStreamRecord{Match: &TopKMatch{Tree: int64(m.Tree), Root: m.Root, Dist: m.Dist}}
		if writeErr = enc.Encode(rec); writeErr == nil {
			writeErr = rc.Flush()
		}
	})
	if err != nil || writeErr != nil {
		return
	}
	s.count(st)
	if enc.Encode(TopKStreamRecord{Done: &TopKStreamDone{Stats: TopKStats{Counters: st, ElapsedMS: time.Since(start).Milliseconds()}}}) == nil {
		rc.Flush()
	}
}
