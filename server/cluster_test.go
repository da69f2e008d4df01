package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/batch"
	"repro/corpus"
	"repro/gen"
	"repro/server"
)

// The fleet's behaviour under worker faults, mismatched snapshots and
// client cancellation is tested in package cluster's tests; this file
// drives every gateway route once.

// startWorker serves its own load of the snapshot at path through a
// Server over loopback HTTP, a stand-in for a tedd worker process.
func startWorker(t *testing.T, path string) *httptest.Server {
	t.Helper()
	c, err := corpus.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(c, server.WithWorkers(2))
	s.Warm()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// newGateway serves a gateway over the given workers. Its local corpus
// is empty, so only the fleet can answer a join or top-k correctly.
func newGateway(t *testing.T, workers ...*httptest.Server) string {
	t.Helper()
	var urls []string
	for _, w := range workers {
		urls = append(urls, w.URL)
	}
	ts := httptest.NewServer(server.New(corpus.New(), server.WithClusterWorkers(urls)))
	t.Cleanup(ts.Close)
	return ts.URL
}

func wireJoin(ms []corpus.Match) []server.JoinMatch {
	out := make([]server.JoinMatch, len(ms))
	for i, m := range ms {
		out[i] = server.JoinMatch{I: int64(m.I), J: int64(m.J), Dist: m.Dist}
	}
	return out
}

func wireTopK(ms []corpus.CrossMatch) []server.TopKMatch {
	out := make([]server.TopKMatch, len(ms))
	for i, m := range ms {
		out[i] = server.TopKMatch{Tree: int64(m.Tree), Root: m.Root, Dist: m.Dist}
	}
	return out
}

// TestClusterGateway drives a gateway over an empty local corpus and two
// workers that hold a snapshot, and requires every join and top-k route,
// buffered and streamed, to answer with single-node corpus.Join /
// corpus.TopKAcross over that snapshot, also under a limit: the routes
// must reach the fleet, not the empty local corpus, unless the request
// carries a range. A malformed query gets the workers' 400, and a
// worker answers a range pinned to another corpus's fingerprint with
// 409. With the workers gone, the buffered routes answer 502 and the
// streams end without a done record.
func TestClusterGateway(t *testing.T) {
	snap := corpus.New(corpus.WithHistogramIndex())
	first := gen.Random(40, gen.RandomSpec{Size: 12, MaxDepth: 5, MaxFanout: 4, Labels: 8})
	for i := 0; i < 12; i++ {
		base := gen.Random(int64(40+i), gen.RandomSpec{Size: 12 + i%4, MaxDepth: 5, MaxFanout: 4, Labels: 8})
		snap.Add(base)
		snap.Add(gen.RenameSome(base, 1+i%2, int64(i)))
	}
	// A near copy of tree 0 in the last range: the second match in
	// (I, J) order comes from the last range, not the first.
	snap.Add(gen.RenameSome(first, 1, 99))
	path := filepath.Join(t.TempDir(), "snap.tedc")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	w1 := startWorker(t, path)
	w2 := startWorker(t, path)
	gw := newGateway(t, w1, w2)

	const tau = 3
	query := gen.Random(7, gen.RandomSpec{Size: 10, MaxDepth: 4, MaxFanout: 3, Labels: 8})
	e := snap.Engine()
	wantJoin, _ := snap.Join(e, tau, batch.JoinOptions{})
	wantTopK, _ := snap.TopKAcross(e, snap.PrepareQuery(e, query), 3)
	if len(wantJoin) < 3 {
		t.Fatal("scenario broken: the snapshot has too few matches at tau for a limit to cut")
	}
	joinWant, topKWant := wireJoin(wantJoin), wireTopK(wantTopK)
	joinReq := server.JoinRequest{Tau: tau}
	topKReq := server.TopKRequest{Query: ref(query.String()), K: 3}

	var join server.JoinResponse
	if code := call(t, "POST", gw+"/v1/join", joinReq, &join); code != 200 {
		t.Fatalf("/v1/join: status %d", code)
	}
	if join.Count != len(joinWant) || !reflect.DeepEqual(join.Matches, joinWant) {
		t.Fatalf("/v1/join: count %d %v, single-node %d %v", join.Count, join.Matches, len(joinWant), joinWant)
	}

	// A limit keeps the first matches in (I, J) order and the full count:
	// each worker sends its range's first limit matches, which hold the
	// first limit overall.
	var limited server.JoinResponse
	if code := call(t, "POST", gw+"/v1/join", server.JoinRequest{Tau: tau, Limit: 2}, &limited); code != 200 ||
		limited.Count != len(joinWant) || !limited.Truncated || !reflect.DeepEqual(limited.Matches, joinWant[:2]) {
		t.Fatalf("/v1/join limit 2: status %d, count %d truncated %v %v; single-node %d %v",
			code, limited.Count, limited.Truncated, limited.Matches, len(joinWant), joinWant[:2])
	}

	recs := postNDJSON[server.JoinStreamRecord](t, gw+"/v1/join/stream", joinReq)
	if len(recs) == 0 || recs[len(recs)-1].Done == nil {
		t.Fatalf("/v1/join/stream: no done record (%d lines)", len(recs))
	}
	streamed := []server.JoinMatch{}
	for _, r := range recs[:len(recs)-1] {
		streamed = append(streamed, *r.Match)
	}
	sort.Slice(streamed, func(a, b int) bool {
		return streamed[a].I < streamed[b].I || streamed[a].I == streamed[b].I && streamed[a].J < streamed[b].J
	})
	if done := recs[len(recs)-1].Done; done.Count != len(joinWant) || !reflect.DeepEqual(streamed, joinWant) {
		t.Fatalf("/v1/join/stream: count %d %v, single-node %d %v", done.Count, streamed, len(joinWant), joinWant)
	}

	var topK server.TopKResponse
	if code := call(t, "POST", gw+"/v1/topk", topKReq, &topK); code != 200 {
		t.Fatalf("/v1/topk: status %d", code)
	}
	if !reflect.DeepEqual(topK.Matches, topKWant) {
		t.Fatalf("/v1/topk: %v, single-node %v", topK.Matches, topKWant)
	}

	krecs := postNDJSON[server.TopKStreamRecord](t, gw+"/v1/topk/stream", topKReq)
	if len(krecs) == 0 || krecs[len(krecs)-1].Done == nil {
		t.Fatalf("/v1/topk/stream: no done record (%d lines)", len(krecs))
	}
	kstreamed := []server.TopKMatch{}
	for _, r := range krecs[:len(krecs)-1] {
		kstreamed = append(kstreamed, *r.Match)
	}
	if !reflect.DeepEqual(kstreamed, topKWant) {
		t.Fatalf("/v1/topk/stream: %v, single-node %v", kstreamed, topKWant)
	}

	if code := call(t, "POST", gw+"/v1/topk", server.TopKRequest{Query: ref("{{{"), K: 3}, nil); code != 400 {
		t.Fatalf("/v1/topk with a malformed query: status %d, want the workers' 400", code)
	}
	// A ranged request runs on the gateway's own, empty, corpus.
	var local server.JoinResponse
	if code := call(t, "POST", gw+"/v1/join", server.JoinRequest{Tau: tau, Range: &server.Range{Lo: 0, Hi: 100}}, &local); code != 200 || local.Count != 0 {
		t.Fatalf("ranged /v1/join on the gateway: status %d, %d matches; want 200 from the empty local corpus", code, local.Count)
	}

	// A range pinned to the worker's fingerprint runs; pinned to another
	// corpus's, it gets 409 and adds nothing to the kernel counters.
	var st server.StatsResponse
	if code := call(t, "GET", w1.URL+"/v1/stats", nil, &st); code != 200 || st.Fingerprint == "" {
		t.Fatalf("worker /v1/stats: status %d, fingerprint %q", code, st.Fingerprint)
	}
	pinned := server.JoinRequest{Tau: tau, Range: &server.Range{Lo: 0, Hi: 100, Fingerprint: st.Fingerprint}}
	if code := call(t, "POST", w1.URL+"/v1/join", pinned, &local); code != 200 || local.Count != len(joinWant) {
		t.Fatalf("join pinned to the worker's fingerprint: status %d, %d matches; want 200 and %d", code, local.Count, len(joinWant))
	}
	call(t, "GET", w1.URL+"/v1/stats", nil, &st)
	pinned.Range.Fingerprint = "0123456789abcdef"
	for path, req := range map[string]any{"/v1/join": pinned, "/v1/topk": server.TopKRequest{Query: ref(query.String()), K: 3, Range: pinned.Range}} {
		if code := call(t, "POST", w1.URL+path, req, nil); code != 409 {
			t.Fatalf("%s pinned to another fingerprint: status %d, want 409", path, code)
		}
	}
	var after server.StatsResponse
	if call(t, "GET", w1.URL+"/v1/stats", nil, &after); after.Counters != st.Counters {
		t.Fatalf("409 answers ran the kernel: counters %+v → %+v", st.Counters, after.Counters)
	}

	w1.Close()
	w2.Close()
	for path, req := range map[string]any{"/v1/join": joinReq, "/v1/topk": topKReq} {
		if code := call(t, "POST", gw+path, req, nil); code != 502 {
			t.Fatalf("%s with every worker gone: status %d, want 502", path, code)
		}
	}
	if recs := postNDJSON[server.JoinStreamRecord](t, gw+"/v1/join/stream", joinReq); len(recs) != 0 && recs[len(recs)-1].Done != nil {
		t.Fatal("/v1/join/stream with every worker gone ended with a done record")
	}
	if recs := postNDJSON[server.TopKStreamRecord](t, gw+"/v1/topk/stream", topKReq); len(recs) != 0 && recs[len(recs)-1].Done != nil {
		t.Fatal("/v1/topk/stream with every worker gone ended with a done record")
	}
}

// TestClusterGatewayForwardsTenant: a gateway's fan-out carries the
// client's X-Tenant and X-Request-ID, so the workers admit a join and a
// top-k sent as tenant alice under alice, not under "default", and see
// the client's request ID on every request of its fan-out, the probes
// included. A client that sends no request ID gets none invented.
func TestClusterGatewayForwardsTenant(t *testing.T) {
	snap := corpus.New()
	for i := 0; i < 8; i++ {
		snap.Add(gen.Random(int64(60+i), gen.RandomSpec{Size: 10, MaxDepth: 4, MaxFanout: 3, Labels: 6}))
	}
	path := filepath.Join(t.TempDir(), "snap.tedc")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		ids = map[string]int{} // X-Request-ID seen by the workers → requests
	)
	var workers []*httptest.Server
	for range 2 {
		c, err := corpus.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(c, server.WithWorkers(1))
		w := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			ids[r.Header.Get("X-Request-ID")]++
			mu.Unlock()
			s.ServeHTTP(w, r)
		}))
		t.Cleanup(w.Close)
		workers = append(workers, w)
	}
	gw := newGateway(t, workers...)

	send := func(path string, body any, requestID string) {
		t.Helper()
		raw, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", gw+path, bytes.NewReader(raw))
		req.Header.Set("X-Tenant", "alice")
		if requestID != "" {
			req.Header.Set("X-Request-ID", requestID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s as alice: status %d", path, resp.StatusCode)
		}
	}
	send("/v1/join", server.JoinRequest{Tau: 4}, "req-join")
	send("/v1/topk", server.TopKRequest{Query: ref("{a{b}}"), K: 2}, "req-topk")
	send("/v1/join", server.JoinRequest{Tau: 2}, "")

	// Probes are not admitted; every range a worker serves is. Which
	// worker serves a range is a race, so the ranges are counted over
	// both.
	alice := int64(0)
	for i, w := range workers {
		var st server.StatsResponse
		if code := call(t, "GET", w.URL+"/v1/stats", nil, &st); code != 200 {
			t.Fatalf("worker %d /v1/stats: status %d", i, code)
		}
		alice += st.Tenants["alice"].Admitted
		if _, ok := st.Tenants["default"]; ok {
			t.Errorf("worker %d admitted gateway traffic as default: tenants %+v", i, st.Tenants)
		}
	}
	if alice < 3 {
		t.Errorf("the workers admitted %d ranges as alice, want at least one per gateway request (3)", alice)
	}
	mu.Lock()
	defer mu.Unlock()
	// Per request: a probe of each of the two workers, then its ranges.
	for _, id := range []string{"req-join", "req-topk"} {
		if ids[id] < 2+1 {
			t.Errorf("workers saw X-Request-ID %q on %d requests, want every probe and range (≥ 3): %v", id, ids[id], ids)
		}
	}
	// The unnamed join and the test's own stats reads carry none.
	if len(ids) != 3 || ids[""] == 0 {
		t.Errorf("workers saw request IDs %v, want the two sent and none", ids)
	}
}
