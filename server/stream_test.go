package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/batch"
	"repro/corpus"
	"repro/gen"
	"repro/server"
)

// postNDJSON posts a JSON request to a streaming endpoint and decodes
// every NDJSON line into recs (a pointer to a slice of record structs).
func postNDJSON[R any](t *testing.T, url string, req any) []R {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	var out []R
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r R
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return out
}

// TestJoinStreamMatchesBuffered is the server half of the streaming
// acceptance bar: at the same tau, the streamed match multiset must be
// bit-identical to the buffered endpoint's, with the terminal done
// record carrying the same count and accounting.
func TestJoinStreamMatchesBuffered(t *testing.T) {
	_, _, ts := newFixture(t)
	for _, tau := range []float64{2, 3, 100} {
		var buf server.JoinResponse
		if code := call(t, "POST", ts.URL+"/v1/join", server.JoinRequest{Tau: tau}, &buf); code != 200 {
			t.Fatalf("tau %g: buffered status %d", tau, code)
		}
		recs := postNDJSON[server.JoinStreamRecord](t, ts.URL+"/v1/join/stream", server.JoinRequest{Tau: tau})
		if len(recs) == 0 || recs[len(recs)-1].Done == nil {
			t.Fatalf("tau %g: stream did not end with a done record (%d lines)", tau, len(recs))
		}
		done := recs[len(recs)-1].Done
		var got []server.JoinMatch
		for _, r := range recs[:len(recs)-1] {
			if r.Match == nil {
				t.Fatalf("tau %g: non-terminal line without a match", tau)
			}
			got = append(got, *r.Match)
		}
		// Streamed matches arrive in completion order; compare as
		// multisets under the buffered endpoint's (I, J) order.
		sort.Slice(got, func(a, b int) bool {
			if got[a].I != got[b].I {
				return got[a].I < got[b].I
			}
			return got[a].J < got[b].J
		})
		if len(got) != len(buf.Matches) {
			t.Fatalf("tau %g: streamed %d matches, buffered %d", tau, len(got), len(buf.Matches))
		}
		for i := range got {
			if got[i] != buf.Matches[i] {
				t.Fatalf("tau %g: match %d = %+v streamed, %+v buffered", tau, i, got[i], buf.Matches[i])
			}
		}
		if done.Count != buf.Count || done.Truncated != buf.Truncated {
			t.Fatalf("tau %g: done (count %d, truncated %v), buffered (count %d, truncated %v)",
				tau, done.Count, done.Truncated, buf.Count, buf.Truncated)
		}
		ds, bs := done.Stats, buf.Stats
		if ds.Candidates != bs.Candidates || ds.LowerPruned != bs.LowerPruned ||
			ds.UpperAccepted != bs.UpperAccepted || ds.ExactComputed != bs.ExactComputed ||
			ds.Mode != bs.Mode {
			t.Fatalf("tau %g: done stats %+v, buffered stats %+v", tau, ds, bs)
		}
	}
}

// TestJoinStreamLimit: the limit stops emission, not the join — the
// done record still reports the full count and flags the truncation.
func TestJoinStreamLimit(t *testing.T) {
	_, _, ts := newFixture(t)
	var buf server.JoinResponse
	call(t, "POST", ts.URL+"/v1/join", server.JoinRequest{Tau: 100}, &buf)
	recs := postNDJSON[server.JoinStreamRecord](t, ts.URL+"/v1/join/stream", server.JoinRequest{Tau: 100, Limit: 1})
	done := recs[len(recs)-1].Done
	if done == nil {
		t.Fatal("stream did not end with a done record")
	}
	if matches := len(recs) - 1; matches != 1 {
		t.Fatalf("limited stream carried %d match lines, want 1", matches)
	}
	if !done.Truncated || done.Count != buf.Count || done.Count <= 1 {
		t.Fatalf("done = count %d truncated %v, want full count %d and truncated", done.Count, done.Truncated, buf.Count)
	}
}

// TestTopKStreamMatchesBuffered: same results as /v1/topk in the same
// order (top-k emits only after the scan — order is part of the
// contract), closed by a done record with the scan stats.
func TestTopKStreamMatchesBuffered(t *testing.T) {
	_, _, ts := newFixture(t)
	req := server.TopKRequest{Query: ref("{a{b}{c}}"), K: 4}
	var buf server.TopKResponse
	if code := call(t, "POST", ts.URL+"/v1/topk", req, &buf); code != 200 {
		t.Fatalf("buffered status %d", code)
	}
	recs := postNDJSON[server.TopKStreamRecord](t, ts.URL+"/v1/topk/stream", req)
	if len(recs) == 0 || recs[len(recs)-1].Done == nil {
		t.Fatalf("stream did not end with a done record (%d lines)", len(recs))
	}
	done := recs[len(recs)-1].Done
	if n := len(recs) - 1; n != len(buf.Matches) {
		t.Fatalf("streamed %d matches, buffered %d", n, len(buf.Matches))
	}
	for i, r := range recs[:len(recs)-1] {
		if r.Match == nil || *r.Match != buf.Matches[i] {
			t.Fatalf("match %d = %+v streamed, %+v buffered", i, r.Match, buf.Matches[i])
		}
	}
	if done.Stats.Subproblems <= 0 {
		t.Fatalf("done stats carry no work: %+v", done.Stats)
	}
}

// TestKernelStatsReconcile pins the kernel counters end to end, on
// every join and top-k endpoint, buffered and streamed: the response's
// counter block equals the in-process corpus call's, and the cumulative
// /v1/stats counters advance by exactly that block. Both comparisons
// take the counters as one struct, so a counter added later is covered
// without editing this test.
func TestKernelStatsReconcile(t *testing.T) {
	c := corpus.New(corpus.WithHistogramIndex())
	for n := 40; n <= 55; n += 3 {
		c.Add(gen.ZigZag(n))
		c.Add(gen.Mixed(n))
	}
	s := server.New(c)
	s.Warm()
	ts := newTestServer(t, s)
	e := s.Engine()

	// tau leaves some pairs to the exact stage, whose cutoff prunes; the
	// top-2 query equals stored tree 0, whose root and largest proper
	// subtree drop the scan's cutoff to 1, and the trees the Euler-string
	// bound cannot skip prune hard under it. (At k = 1 the cutoff drops
	// to 0 and that bound skips every later tree whole.)
	const tau = 6
	_, js := c.Join(e, tau, batch.JoinOptions{})
	query := gen.ZigZag(40)
	_, ks := c.TopKAcross(e, c.PrepareQuery(e, query), 2)
	if js.ExactComputed == 0 || js.PrunedSubproblems == 0 || ks.PrunedSubproblems == 0 {
		t.Fatalf("scenario broken: the join's exact stage or the top-k scan pruned nothing: %+v, %+v", js, ks)
	}
	joinReq := server.JoinRequest{Tau: tau}
	topKReq := server.TopKRequest{Query: ref(query.String()), K: 2}
	endpoints := []struct {
		path string
		want batch.Stats
		run  func(url string) batch.Stats
	}{
		{"/v1/join", js.Counters, func(url string) batch.Stats {
			var resp server.JoinResponse
			if code := call(t, "POST", url, joinReq, &resp); code != 200 {
				t.Fatalf("status %d", code)
			}
			return resp.Stats.Counters
		}},
		{"/v1/join/stream", js.Counters, func(url string) batch.Stats {
			recs := postNDJSON[server.JoinStreamRecord](t, url, joinReq)
			if len(recs) == 0 || recs[len(recs)-1].Done == nil {
				t.Fatal("join stream without a done record")
			}
			return recs[len(recs)-1].Done.Stats.Counters
		}},
		{"/v1/topk", ks, func(url string) batch.Stats {
			var resp server.TopKResponse
			if code := call(t, "POST", url, topKReq, &resp); code != 200 {
				t.Fatalf("status %d", code)
			}
			return resp.Stats.Counters
		}},
		{"/v1/topk/stream", ks, func(url string) batch.Stats {
			recs := postNDJSON[server.TopKStreamRecord](t, url, topKReq)
			if len(recs) == 0 || recs[len(recs)-1].Done == nil {
				t.Fatal("top-k stream without a done record")
			}
			return recs[len(recs)-1].Done.Stats.Counters
		}},
	}
	cumulative := func() batch.Stats {
		var st server.StatsResponse
		if code := call(t, "GET", ts+"/v1/stats", nil, &st); code != 200 {
			t.Fatalf("stats: status %d", code)
		}
		return st.Counters
	}
	for _, ep := range endpoints {
		before := cumulative()
		got := ep.run(ts + ep.path)
		if got != ep.want {
			t.Fatalf("%s: response counters %+v, in-process %+v", ep.path, got, ep.want)
		}
		want := before
		want.Merge(got)
		if after := cumulative(); after != want {
			t.Fatalf("%s: /v1/stats counters went from %+v to %+v, want %+v", ep.path, before, after, want)
		}
	}
}

// TestJoinStreamClientCancel: a client that disconnects mid-stream must
// not leak its admission slot — the context cancellation propagates
// down to the engine and the request unwinds (the engine-level
// work-actually-stops assertion lives in batch's stream tests).
func TestJoinStreamClientCancel(t *testing.T) {
	c := corpus.New(corpus.WithHistogramIndex())
	for i := 0; i < 40; i++ {
		c.Add(gen.Random(int64(i), gen.RandomSpec{Size: 40, MaxDepth: 8, MaxFanout: 4, Labels: 6}))
	}
	s := server.New(c)
	s.Warm()
	ts := newTestServer(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts+"/v1/join/stream",
		strings.NewReader(`{"tau":100,"mode":"enumerate"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	// Read one line — the stream is live — then hang up mid-stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The slot must come back without the stream running to completion.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight slot not released after client cancel: %d held", s.Stats().InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st server.StatsResponse
	if code := call(t, "GET", ts+"/v1/stats", nil, &st); code != 200 || st.InFlight != 0 {
		t.Fatalf("stats after cancel: code %d, in-flight %d", code, st.InFlight)
	}
}

// TestTopKClientCancel: buffered /v1/topk writes nothing until its scan
// ends, so a client that hangs up first must stop the scan through the
// request context instead of leaving a core busy. The admit hook holds
// the request until the server has seen the client go; the scan then
// starts on a cancelled context, stops before its first tree, and
// releases the slot without adding to the cumulative pruning counters —
// a scan that ran anyway would have: the query is stored twice, so the
// second copy runs its DP at cutoff 0 and prunes.
func TestTopKClientCancel(t *testing.T) {
	c := corpus.New()
	spec := gen.RandomSpec{Size: 40, MaxDepth: 8, MaxFanout: 4, Labels: 6}
	for i := 0; i < 40; i++ {
		c.Add(gen.Random(int64(i), spec))
	}
	query := gen.Random(3, spec)
	c.Add(query)
	reqCtx := make(chan context.Context, 1)
	admitted := make(chan struct{})
	s := server.New(c, server.WithAdmitHook(func() {
		ctx := <-reqCtx
		close(admitted)
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("the server never saw the client hang up")
		}
	}))
	s.Warm()
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqCtx <- r.Context()
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(hts.Close)
	ts := hts.URL
	before := s.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts+"/v1/topk",
		strings.NewReader(`{"query":{"tree":"`+query.String()+`"},"k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-admitted
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled top-k reported success")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight slot not released after client cancel: %d held", s.Stats().InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := s.Stats()
	if after.PrunedSubproblems != before.PrunedSubproblems || after.BandSkippedCells != before.BandSkippedCells ||
		after.PrunedKeyroots != before.PrunedKeyroots {
		t.Fatalf("cancelled top-k still ran its scan: pruned %d → %d, band cells %d → %d",
			before.PrunedSubproblems, after.PrunedSubproblems, before.BandSkippedCells, after.BandSkippedCells)
	}
}

// TestJoinClientCancel is TestTopKClientCancel for buffered /v1/join:
// the join collects over the ctx-carrying stream evaluator, so a client
// that hangs up before the join starts stops it at the first pair
// boundary, releases the slot, and adds nothing to the cumulative
// counters. A join that ran anyway would have: at this threshold the
// bound filters leave pairs undecided, and their cutoff-seeded GTED runs
// materialize rows and prune cells.
func TestJoinClientCancel(t *testing.T) {
	c := corpus.New(corpus.WithHistogramIndex())
	for i := 0; i < 40; i++ {
		c.Add(gen.Random(int64(i), gen.RandomSpec{Size: 40, MaxDepth: 8, MaxFanout: 4, Labels: 6}))
	}
	reqCtx := make(chan context.Context, 1)
	admitted := make(chan struct{})
	s := server.New(c, server.WithAdmitHook(func() {
		ctx := <-reqCtx
		close(admitted)
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("the server never saw the client hang up")
		}
	}))
	s.Warm()
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqCtx <- r.Context()
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(hts.Close)
	before := s.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", hts.URL+"/v1/join",
		strings.NewReader(`{"tau":30,"mode":"enumerate"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-admitted
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled join reported success")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight slot not released after client cancel: %d held", s.Stats().InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := s.Stats()
	if after.PrunedSubproblems != before.PrunedSubproblems || after.RowCells != before.RowCells ||
		after.BandSkippedCells != before.BandSkippedCells || after.PrunedKeyroots != before.PrunedKeyroots {
		t.Fatalf("cancelled join still ran: pruned %d → %d, row cells %d → %d",
			before.PrunedSubproblems, after.PrunedSubproblems, before.RowCells, after.RowCells)
	}
}

// writeTracker records whether a handler wrote anything to w.
type writeTracker struct {
	http.ResponseWriter
	wrote *atomic.Bool
}

func (w writeTracker) WriteHeader(code int) {
	w.wrote.Store(true)
	w.ResponseWriter.WriteHeader(code)
}

func (w writeTracker) Write(b []byte) (int, error) {
	w.wrote.Store(true)
	return w.ResponseWriter.Write(b)
}

func (w writeTracker) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestPointClientCancel: on each point route, a client that hangs up
// while the server computes a pair that takes tens of seconds (a
// 2,001-node zigzag against a 2,047-node full binary tree, under the
// node cap) releases its slot within 5 s, because the kernel stops
// inside the pair. The handler writes nothing, and the /v1/stats kernel
// counters do not move.
func TestPointClientCancel(t *testing.T) {
	zz, fb := gen.ZigZag(2001).String(), gen.FullBinary(2047).String()
	for _, route := range []struct{ path, body string }{
		{"/v1/distance", fmt.Sprintf(`{"f":{"tree":%q},"g":{"tree":%q}}`, zz, fb)},
		{"/v1/distance-bounded", fmt.Sprintf(`{"f":{"tree":%q},"g":{"tree":%q},"tau":1e6}`, zz, fb)},
	} {
		t.Run(strings.TrimPrefix(route.path, "/v1/"), func(t *testing.T) {
			admitted := make(chan struct{})
			s := server.New(corpus.New(), server.WithAdmitHook(func() { close(admitted) }))
			var wrote atomic.Bool
			hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				s.ServeHTTP(writeTracker{w, &wrote}, r)
			}))
			t.Cleanup(hts.Close)
			before := s.Stats()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "POST", hts.URL+route.path, strings.NewReader(route.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			errc := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				errc <- err
			}()
			<-admitted
			// Parsing, preparing and the strategy DP take a fraction of
			// this; the pair itself runs for tens of seconds.
			time.Sleep(time.Second)
			cancel()
			if err := <-errc; err == nil {
				t.Fatal("cancelled request reported success")
			}

			deadline := time.Now().Add(5 * time.Second)
			for s.Stats().InFlight != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("in-flight slot not released after client cancel: %d held", s.Stats().InFlight)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if wrote.Load() {
				t.Fatal("the handler answered a client that hung up")
			}
			if after := s.Stats(); after.Counters != before.Counters {
				t.Fatalf("kernel counters moved: %+v → %+v", before.Counters, after.Counters)
			}
		})
	}
}

// newTestServer mounts s and returns its base URL (newFixture builds
// its own corpus; this variant serves a caller-built one).
func newTestServer(t *testing.T, s *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestTenantPriorityUnderOverload pins the acceptance bar for the
// tenant-aware gate: with one tenant hammering heavy joins and another
// issuing point lookups, the heavy class cap keeps point slots
// reachable — the point tenant's shed count stays strictly below the
// heavy joiner's.
func TestTenantPriorityUnderOverload(t *testing.T) {
	_, s, ts := newFixture(t,
		server.WithMaxInFlight(4),
		server.WithHeavySlots(1),
		server.WithQueueTimeout(250*time.Millisecond),
		server.WithAdmitHook(func() { time.Sleep(50 * time.Millisecond) }),
	)
	if s.HeavySlots() != 1 {
		t.Fatalf("heavy slots = %d, want 1", s.HeavySlots())
	}

	post := func(path, tenant, body string) int {
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("post %s: %v", path, err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	var wg sync.WaitGroup
	// 10 joins on one heavy slot at ≥ 50 ms each: the queue timeout
	// admits at most ~6 of them, so some must shed. 8 point lookups on
	// the 3 remaining slots clear in ~3 waves, well inside the timeout.
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post("/v1/join", "batch", `{"tau":2}`)
		}()
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post("/v1/distance", "web", `{"f":{"id":0},"g":{"id":1}}`)
		}()
	}
	wg.Wait()

	st := s.Stats()
	batch, web := st.Tenants["batch"], st.Tenants["web"]
	if batch.Admitted+batch.Shed != 10 || web.Admitted+web.Shed != 8 {
		t.Fatalf("tenant accounting does not cover the arrivals: batch %+v, web %+v", batch, web)
	}
	if batch.Shed < 1 {
		t.Fatalf("heavy tenant shed nothing under overload: %+v", batch)
	}
	if web.Shed >= batch.Shed {
		t.Fatalf("point tenant shed %d ≥ heavy tenant's %d — the heavy cap is not protecting point lookups",
			web.Shed, batch.Shed)
	}
	if st.Shed != batch.Shed+web.Shed {
		t.Fatalf("global shed %d != tenant sum %d", st.Shed, batch.Shed+web.Shed)
	}
}

// TestAbandonedWhileQueued pins the admission accounting hole: a client
// that disconnects while waiting for a slot used to vanish without a
// counter, so admitted + shed undercounted arrivals. It must land in
// the abandoned counters (global and per-tenant) instead.
func TestAbandonedWhileQueued(t *testing.T) {
	_, s, ts := newFixture(t,
		server.WithMaxInFlight(1), server.WithQueueTimeout(10*time.Second))
	release := s.OccupySlots(1)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/distance",
		strings.NewReader(`{"f":{"id":0},"g":{"id":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "flaky")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	// Give the request time to reach the queue, then hang up.
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request reported success")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Abandoned != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned counter = %d, want 1 (stats %+v)", s.Stats().Abandoned, s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if tc := st.Tenants["flaky"]; tc.Abandoned != 1 || tc.Admitted != 0 || tc.Shed != 0 {
		t.Fatalf("tenant counters %+v, want exactly one abandonment", tc)
	}
	if st.Shed != 0 {
		t.Fatalf("abandonment double-counted as shed: %+v", st)
	}

	// The abandoned waiter must not have consumed the slot.
	release()
	if code := call(t, "POST", ts.URL+"/v1/distance",
		server.DistanceRequest{F: refID(0), G: refID(1)}, nil); code != 200 {
		t.Fatalf("post after release: status %d", code)
	}
}

// TestGateConcurrentTenants races many tenants and both priority
// classes through a tiny gate (run under -race in CI) and checks the
// books balance: every arrival is admitted or shed, globals equal the
// tenant sums, and every slot comes back.
func TestGateConcurrentTenants(t *testing.T) {
	_, s, ts := newFixture(t,
		server.WithMaxInFlight(3),
		server.WithHeavySlots(2),
		server.WithTenantQuota(2),
		server.WithQueueTimeout(20*time.Millisecond),
		server.WithAdmitHook(func() { time.Sleep(time.Millisecond) }),
	)
	tenants := []string{"t0", "t1", "t2", "t3"}
	const perTenant = 12
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		ok200, shed int
	)
	for ti, tenant := range tenants {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, heavy bool) {
				defer wg.Done()
				path, body := "/v1/distance", `{"f":{"id":0},"g":{"id":1}}`
				if heavy {
					path, body = "/v1/join", `{"tau":2}`
				}
				req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Tenant", tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case 200:
					ok200++
				case 503:
					shed++
				default:
					t.Errorf("status %d", resp.StatusCode)
				}
				mu.Unlock()
			}(tenant, (ti+i)%3 == 0)
		}
	}
	wg.Wait()

	st := s.Stats()
	total := len(tenants) * perTenant
	if ok200+shed != total {
		t.Fatalf("client observed %d outcomes, sent %d", ok200+shed, total)
	}
	if st.Admitted != int64(ok200) || st.Shed != int64(shed) {
		t.Fatalf("server counted %d admitted / %d shed, client observed %d / %d",
			st.Admitted, st.Shed, ok200, shed)
	}
	var sumAdm, sumShed, sumAband int64
	for _, tc := range st.Tenants {
		sumAdm += tc.Admitted
		sumShed += tc.Shed
		sumAband += tc.Abandoned
	}
	if sumAdm != st.Admitted || sumShed != st.Shed || sumAband != st.Abandoned || st.Abandoned != 0 {
		t.Fatalf("tenant sums (%d, %d, %d) disagree with globals (%d, %d, %d)",
			sumAdm, sumShed, sumAband, st.Admitted, st.Shed, st.Abandoned)
	}
	if st.InFlight != 0 {
		t.Fatalf("%d slots still held after all requests returned", st.InFlight)
	}
}
