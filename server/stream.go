package server

import (
	"context"
	"encoding/json"
	"net/http"
)

// The streaming framing. POST /v1/join and /v1/topk buffer the whole
// result before the first response byte, so a join whose matches take
// seconds to accumulate gives the client nothing to work with until the
// last pair resolves. Their /stream twins run the same handler
// (handleJoin, handleTopK) and differ only in framing: each result is
// one NDJSON line, flushed as it is found. On either route, as on the
// point routes, the request context is threaded down through the corpus
// and the worker pool into the kernel, so a disconnected client stops
// the engine inside the pair instead of wasting the remaining work; a
// stream also stops it when a write fails. On a gateway the same context carries the
// fan-out's requests, so a client that hangs up ends the workers' ranges
// too.
//
// Framing contract (see JoinStreamRecord / TopKStreamRecord): every
// line is a record carrying either a match or the terminal done record
// with the full stats block. The done record is written only after a
// complete run — a stream that ends without one was cut short and must
// not be treated as a complete result set.

// ndjson writes a stream's records, one JSON line each, flushed as
// written. The first failed write — the other disconnect signal: the
// kernel may notice a dead peer only when we write — cancels the
// request's work, and every later write is dropped.
type ndjson struct {
	enc    *json.Encoder
	rc     *http.ResponseController
	cancel context.CancelFunc
	err    error
}

// newNDJSON starts a 200 NDJSON response on w; cancel stops the work
// whose results it carries.
func newNDJSON(w http.ResponseWriter, cancel context.CancelFunc) *ndjson {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return &ndjson{enc: json.NewEncoder(w), rc: http.NewResponseController(w), cancel: cancel}
}

func (n *ndjson) write(rec any) {
	if n.err != nil {
		return
	}
	if n.err = n.enc.Encode(rec); n.err == nil {
		n.err = n.rc.Flush()
	}
	if n.err != nil {
		n.cancel()
	}
}
