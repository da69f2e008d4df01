package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"
)

// Runner executes one workload against one or more targets. A target is
// any server speaking the package server JSON API: a live tedd over TCP
// or an httptest.Server wrapping server.New in-process — the harness is
// identical either way, which is what lets the e2e tests hold it to the
// engine's correctness bar.
type Runner struct {
	// Targets are the target URL prefixes, e.g. "http://127.0.0.1:8420".
	// The generated request stream is dealt across them round-robin
	// (request i goes to target i mod len), so the stream stays
	// deterministic and identical to a single-target run. Several targets
	// must serve the same corpus (a primary and its read replicas): the
	// snapshot is taken once, and a mutating mix will 403 on read-only
	// replicas.
	Targets []string
	// Client issues the requests (http.DefaultClient if nil).
	Client *http.Client
	Spec   Spec
	Snap   Snapshot

	// Check, if set, cross-checks every 2xx response (it receives the
	// generated request and the raw response body). A non-nil return is
	// counted as that endpoint's error — the e2e harness uses this to
	// compare every served answer against the in-process engine.
	Check func(req Request, status int, body []byte) error
}

// Counts tallies requests by outcome. Every request is exactly one of
// OK, Shed (a 503 from admission control) or Errors (a transport
// failure, any other non-2xx status, a cut-short stream or a failed
// cross-check).
type Counts struct {
	OK, Shed, Errors int64
	// FirstError describes one error; empty when Errors is 0.
	FirstError string
}

// Requests is the number of requests counted.
func (c Counts) Requests() int64 { return c.OK + c.Shed + c.Errors }

func (c *Counts) add(ep string, shed bool, err error) {
	switch {
	case err != nil:
		c.Errors++
		if c.FirstError == "" {
			c.FirstError = ep + ": " + err.Error()
		}
	case shed:
		c.Shed++
	default:
		c.OK++
	}
}

// Result is a run's outcome counted per endpoint and per target (only
// those that were sent a request), and in total.
type Result struct {
	Endpoints map[string]Counts
	Targets   map[string]Counts
	Total     Counts
}

// WriteTable prints the result as tab-separated rows: one per endpoint
// in canonical order, the total, then one per target.
func (res *Result) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "endpoint\trequests\tok\tshed\terrors")
	row := func(name string, c Counts) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", name, c.Requests(), c.OK, c.Shed, c.Errors)
	}
	for _, ep := range Endpoints {
		if c, sent := res.Endpoints[ep]; sent {
			row(ep, c)
		}
	}
	row("TOTAL", res.Total)
	for _, tgt := range slices.Sorted(maps.Keys(res.Targets)) {
		row("@"+tgt, res.Targets[tgt])
	}
}

// Run sends the workload's Spec.Requests requests and counts their
// outcomes. The request stream is generated from (Spec, Snap, Seed) —
// deterministic and independent of concurrency — and sent closed-loop:
// Conc workers, each keeping exactly one request in flight. On ctx
// cancellation the remaining stream is abandoned and the partial result
// is returned alongside ctx's error.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	gen, err := NewGen(r.Spec, r.Snap)
	if err != nil {
		return nil, err
	}
	if len(r.Targets) == 0 {
		return nil, errors.New("load: no targets")
	}
	client := r.Client
	if client == nil {
		client = http.DefaultClient
	}

	res := &Result{Endpoints: map[string]Counts{}, Targets: map[string]Counts{}}
	var (
		mu   sync.Mutex // guards gen, sent and res
		sent int
	)
	// next deals the stream's next request and its target.
	next := func() (Request, string, bool) {
		mu.Lock()
		defer mu.Unlock()
		if sent == r.Spec.Requests || ctx.Err() != nil {
			return Request{}, "", false
		}
		tgt := r.Targets[sent%len(r.Targets)]
		sent++
		return gen.Next(), tgt, true
	}
	record := func(ep, tgt string, shed bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		c := res.Endpoints[ep]
		c.add(ep, shed, err)
		res.Endpoints[ep] = c
		c = res.Targets[tgt]
		c.add(ep, shed, err)
		res.Targets[tgt] = c
		res.Total.add(ep, shed, err)
	}

	var wg sync.WaitGroup
	for w := 0; w < r.Spec.Conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				req, tgt, more := next()
				if !more {
					return
				}
				shed, err := r.do(ctx, client, req, tgt)
				if err != nil && ctx.Err() != nil {
					return // abandoned, not failed
				}
				record(req.Endpoint, tgt, shed, err)
			}
		}()
	}
	wg.Wait()
	return res, ctx.Err()
}

// do sends one request to tgt. It reports a 503 as shed and every
// other failure as an error.
func (r *Runner) do(ctx context.Context, client *http.Client, req Request, tgt string) (shed bool, err error) {
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.Method, tgt+req.Path, body)
	if err != nil {
		return false, fmt.Errorf("build request: %w", err)
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if r.Spec.Tenant != "" {
		hr.Header.Set("X-Tenant", r.Spec.Tenant)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return false, fmt.Errorf("transport: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, fmt.Errorf("read body: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return true, nil
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, truncate(raw, 200))
	}
	if streamEndpoints[req.Endpoint] {
		if err := checkStream(raw); err != nil {
			return false, err
		}
	}
	if r.Check != nil {
		if err := r.Check(req, resp.StatusCode, raw); err != nil {
			return false, fmt.Errorf("cross-check: %w", err)
		}
	}
	return false, nil
}

// checkStream checks an NDJSON response: every line is a JSON record,
// and one is the terminal done record — a stream without it was cut
// short and is an error, not a fast success.
func checkStream(body []byte) error {
	sawDone := false
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Done json.RawMessage `json:"done"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("stream: bad line: %v", err)
		}
		sawDone = sawDone || rec.Done != nil
	}
	if !sawDone {
		return errors.New("stream ended without a done record (cut short)")
	}
	return nil
}

func truncate(b []byte, n int) string {
	s := string(bytes.TrimSpace(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
