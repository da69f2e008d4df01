package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/batch"
	"repro/corpus"
)

// A gateway's fan-out over its workers' HTTP API (see the Gateways
// section of the package doc).

// fleet is a gateway's workers: their base URLs and the client that
// reaches them.
type fleet struct {
	urls   []string
	client *http.Client
}

// rangesPerWorker oversizes the range queue: a fast worker picks up
// slack from a slow one, and a worker that fails loses only the range
// it holds.
const rangesPerWorker = 4

// probeTimeout bounds a worker's /v1/stats probe and every dial to a
// worker: a host that drops packets, instead of refusing the
// connection, would otherwise hold each request for the transport's
// 30 s default.
const probeTimeout = 5 * time.Second

// newFleet builds the fan-out over urls for a gateway with heavySlots
// heavy slots. Every heavy request it admits holds at most one
// connection per worker, so keeping heavySlots idle connections per
// worker lets each request reuse one instead of dialing.
func newFleet(urls []string, heavySlots int) *fleet {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DialContext = (&net.Dialer{Timeout: probeTimeout, KeepAlive: 30 * time.Second}).DialContext
	t.MaxIdleConnsPerHost = heavySlots
	return &fleet{urls: urls, client: &http.Client{Transport: t}}
}

// statusError is a failure the client gets with its own status: a
// worker's 4xx (the worker refused the request itself, so every other
// worker would too), a worker's 503 (it sheds load; the client may
// retry), a worker's 409 turned into a 502 naming the worker, or a
// ranged request's 409 on the worker itself.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// forwardedHeaders are the client's request headers a gateway repeats on
// every fan-out request it makes for that client: the tenant, so each
// worker admits the traffic under the client's tenant and not under
// "default", and the request ID, which names one client request across
// the gateway and its workers.
var forwardedHeaders = []string{"X-Tenant", "X-Request-ID"}

// fetch sends one request to a worker, with the forwardedHeaders that
// the client's headers hdr carry, and decodes its 200 answer into out.
// A worker's 409 — its corpus is no longer the one the gateway
// probed — comes back as a 502 *statusError, its other 4xx and its 503
// as a *statusError with that status; a transport error, any other
// status or a body cut short as a plain error.
func (f *fleet) fetch(ctx context.Context, hdr http.Header, method, url string, in, out any) error {
	var body bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, url, &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for _, k := range forwardedHeaders {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e) // the message only; the status decides
		msg := fmt.Sprintf("worker %s: %s: %s", url, resp.Status, e.Error)
		switch {
		case resp.StatusCode == http.StatusConflict:
			return &statusError{status: http.StatusBadGateway, msg: msg}
		case resp.StatusCode >= 400 && resp.StatusCode < 500, resp.StatusCode == http.StatusServiceUnavailable:
			return &statusError{status: resp.StatusCode, msg: msg}
		}
		return errors.New(msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("worker %s: %w", url, err)
	}
	return nil
}

// live reads /v1/stats from every worker at once for the client whose
// headers are hdr, each under probeTimeout, and returns those that
// answer and are not draining, with the stats of the first of them,
// which the others agree with. A worker that does not answer is down
// and skipped: its share of the ranges goes to the others. Workers that
// answer with different corpora are an error — dealing positions over
// diverging corpora would merge garbage quietly — and so is a worker
// without a fingerprint, which predates ranges and would answer each
// range with its whole corpus, and a fleet of which no worker answers.
func (f *fleet) live(ctx context.Context, hdr http.Header) ([]string, *StatsResponse, error) {
	sts := make([]StatsResponse, len(f.urls))
	errs := make([]error, len(f.urls))
	var wg sync.WaitGroup
	for i, u := range f.urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			errs[i] = f.fetch(pctx, hdr, http.MethodGet, u+"/v1/stats", nil, &sts[i])
		}()
	}
	wg.Wait()
	var (
		up    []string
		first *StatsResponse
	)
	for i, u := range f.urls {
		st := &sts[i]
		switch {
		case errs[i] != nil:
			continue
		case st.Draining:
			errs[i] = fmt.Errorf("worker %s: draining", u)
			continue
		case st.Fingerprint == "":
			return nil, nil, fmt.Errorf("worker %s reports no corpus fingerprint", u)
		case first == nil:
			first = st
		case st.Trees != first.Trees || st.Fingerprint != first.Fingerprint:
			return nil, nil, fmt.Errorf("worker %s holds a different corpus (%d trees, fingerprint %s) than worker %s (%d trees, %s)",
				u, st.Trees, st.Fingerprint, up[0], first.Trees, first.Fingerprint)
		}
		up = append(up, u)
	}
	if first == nil {
		return nil, nil, fmt.Errorf("no worker answers: %w", errors.Join(errs...))
	}
	return up, first, nil
}

// deal evaluates one request of the client whose headers are hdr over
// the live workers: it splits the positions into ranges, rangesPerWorker
// per worker, and posts each range, pinned to the fingerprint the
// workers agreed on, to path on some worker, body building the ranged
// request. A complete 200 commits
// the range's answer. A transport error, a 5xx other than 503 or a body
// cut short puts the range back in the queue and retires that worker
// for this request; a *statusError (a worker's 4xx or 503, or a worker
// whose corpus changed since the probe) ends the request. It fails when
// ctx ends or no worker is left while ranges are outstanding.
func deal[R any](ctx context.Context, f *fleet, hdr http.Header, path string, body func(Range) any) ([]R, error) {
	up, st, err := f.live(ctx, hdr)
	if err != nil {
		return nil, err
	}
	n := st.Trees
	nr := min(rangesPerWorker*len(up), n)
	if nr == 0 {
		return nil, nil
	}
	out := make([]R, nr)
	// Every range is either queued or held by one worker goroutine, so
	// the queue always has room to take a range back.
	queue := make(chan int, nr)
	for i := range nr {
		queue <- i
	}
	dctx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		mu      sync.Mutex
		left    = nr
		refused error // a *statusError
		lastErr error // the last failure that retired a worker
		wg      sync.WaitGroup
	)
	for _, u := range up {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var i int
				select {
				case i = <-queue:
				case <-dctx.Done():
					return
				}
				var r R
				err := f.fetch(dctx, hdr, http.MethodPost, u+path, body(Range{Lo: i * n / nr, Hi: (i + 1) * n / nr, Fingerprint: st.Fingerprint}), &r)
				var se *statusError
				mu.Lock()
				switch {
				case err == nil:
					out[i] = r
					if left--; left == 0 {
						stop()
					}
				case errors.As(err, &se):
					refused = err
					stop()
				default:
					lastErr = err
				}
				mu.Unlock()
				if err != nil {
					queue <- i
					return
				}
			}
		}()
	}
	wg.Wait()
	switch {
	case refused != nil:
		return nil, refused
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case left > 0:
		return nil, fmt.Errorf("%d of %d ranges unanswered, no worker left: %w", left, nr, lastErr)
	}
	return out, nil
}

// join evaluates req, sent with the client's headers hdr, on the fleet.
// Each worker answers a range's first
// req.Limit matches in (I, J) order, its full count and its stats; the
// merge passes the first req.Limit matches overall to emit, in (I, J)
// order, and returns the summed stats and count. The merge is exact: a
// match among the first req.Limit overall is among the first req.Limit
// of its own range.
func (f *fleet) join(ctx context.Context, hdr http.Header, req JoinRequest, emit func(corpus.Match)) (batch.JoinStats, int, error) {
	start := time.Now()
	parts, err := deal[JoinResponse](ctx, f, hdr, "/v1/join", func(r Range) any {
		req := req
		req.Range = &r
		return req
	})
	if err != nil {
		return batch.JoinStats{}, 0, err
	}
	var (
		ms    []JoinMatch
		st    batch.JoinStats
		count int
	)
	for _, p := range parts {
		ms = append(ms, p.Matches...)
		count += p.Count
		st.Merge(p.Stats.engine())
	}
	slices.SortFunc(ms, func(a, b JoinMatch) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	for _, m := range ms[:min(len(ms), req.Limit)] {
		emit(corpus.Match{I: corpus.ID(m.I), J: corpus.ID(m.J), Dist: m.Dist})
	}
	st.Elapsed = time.Since(start)
	return st, count, nil
}

// topK evaluates req, sent with the client's headers hdr, on the fleet.
// Each worker answers its range's local
// top k; the merge passes the k best overall to emit in result order and
// returns the summed counters.
func (f *fleet) topK(ctx context.Context, hdr http.Header, req TopKRequest, emit func(corpus.CrossMatch)) (batch.Stats, error) {
	parts, err := deal[TopKResponse](ctx, f, hdr, "/v1/topk", func(r Range) any {
		req := req
		req.Range = &r
		return req
	})
	if err != nil {
		return batch.Stats{}, err
	}
	var (
		ms []TopKMatch
		st batch.Stats
	)
	for _, p := range parts {
		ms = append(ms, p.Matches...)
		st.Merge(p.Stats.Counters)
	}
	slices.SortFunc(ms, func(a, b TopKMatch) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Tree, b.Tree), cmp.Compare(a.Root, b.Root))
	})
	for _, m := range ms[:min(len(ms), req.K)] {
		emit(corpus.CrossMatch{Tree: corpus.ID(m.Tree), Root: m.Root, Dist: m.Dist})
	}
	return st, nil
}
