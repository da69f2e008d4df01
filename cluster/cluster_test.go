package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
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

// The fleet's end-to-end cases: a gateway Server deals position ranges
// of a join or top-k to worker Servers over the HTTP API (see
// server.WithClusterWorkers), and its answers must equal a single node's
// over the same snapshot, through worker deaths, mismatched snapshots
// and a client that hangs up.

// buildSnapshot writes a snapshot with near-duplicate clusters (and a
// few exact duplicates) spread over the whole ID range, so joins at
// every tau above zero have matches in every range.
func buildSnapshot(t *testing.T, seed int64) string {
	t.Helper()
	c := corpus.New(corpus.WithHistogramIndex())
	for i := 0; i < 12; i++ {
		base := gen.Random(seed+int64(i), gen.RandomSpec{Size: 14 + i%5, MaxDepth: 6, MaxFanout: 4, Labels: 8})
		c.Add(base)
		c.Add(gen.RenameSome(base, 1+i%2, int64(i)))
		if i%3 == 0 {
			c.Add(base) // exact duplicate: a distance-0 pair
		}
	}
	path := filepath.Join(t.TempDir(), "snap.tedc")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadSnapshot is the single node the fleet's answers must equal.
func loadSnapshot(t *testing.T, path string) (*corpus.Corpus, *batch.Engine) {
	t.Helper()
	c, err := corpus.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Engine()
}

// startWorker serves its own load of the snapshot at path through a
// Server over loopback HTTP, a stand-in for a tedd worker process. wrap,
// if non-nil, wraps the server's handler (fault injection).
func startWorker(t *testing.T, path string, wrap func(*httptest.Server, http.Handler) http.Handler, opts ...server.Option) (*server.Server, *httptest.Server) {
	t.Helper()
	c, err := corpus.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(c, append([]server.Option{server.WithWorkers(2)}, opts...)...)
	s.Warm()
	ts := httptest.NewUnstartedServer(s)
	if wrap != nil {
		ts.Config.Handler = wrap(ts, s)
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts
}

// dieOnJoin makes a worker crash on its first /v1/join: it closes its
// listener and aborts the connection mid-request, as a killed worker
// process would. died is closed once it has.
func dieOnJoin(died chan struct{}) func(*httptest.Server, http.Handler) http.Handler {
	var once sync.Once
	return func(ts *httptest.Server, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/join" {
				once.Do(func() {
					ts.Listener.Close()
					close(died)
				})
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	}
}

// holdUntil makes a worker hold every range it takes until ch closes,
// so that another worker is sure to take one first.
func holdUntil(t *testing.T, ch chan struct{}, what string) server.Option {
	return server.WithAdmitHook(func() {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Error(what)
		}
	})
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

// post sends req as JSON, decodes the JSON answer into resp (if
// non-nil) and returns the status code.
func post(t *testing.T, url string, req, resp any) int {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer hresp.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil && err != io.EOF {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return hresp.StatusCode
}

// gatewayJoin posts a join to the gateway and fails unless it answers
// 200 with the match set of single, pair for pair and distance
// for distance.
func gatewayJoin(t *testing.T, gw string, single *corpus.Corpus, e *batch.Engine, tau float64, mode batch.IndexMode) (server.JoinResponse, batch.JoinStats) {
	t.Helper()
	want, wantSt := single.Join(e, tau, batch.JoinOptions{Mode: mode})
	var got server.JoinResponse
	if code := post(t, gw+"/v1/join", server.JoinRequest{Tau: tau, Mode: mode.String()}, &got); code != 200 {
		t.Fatalf("tau %g mode %v: status %d", tau, mode, code)
	}
	if got.Count != len(want) || got.Truncated || !reflect.DeepEqual(got.Matches, wireJoin(want)) {
		t.Fatalf("tau %g mode %v: gateway join diverged\ngot  %d %v\nwant %d %v", tau, mode, got.Count, got.Matches, len(want), wireJoin(want))
	}
	return got, wantSt
}

// TestClusterJoinIdentity pins the acceptance bar: the gateway's join
// over two workers equals single-node corpus.Join over the same snapshot
// — pair for pair, distance for distance — at tau zero, finite, and
// above every tree size (JSON cannot carry +Inf; auto resolves such a
// tau to enumeration too), under both the auto and the enumerate
// candidate generators.
func TestClusterJoinIdentity(t *testing.T) {
	path := buildSnapshot(t, 300)
	_, w1 := startWorker(t, path, nil)
	_, w2 := startWorker(t, path, nil)
	gw := newGateway(t, w1, w2)
	single, e := loadSnapshot(t, path)

	for _, tau := range []float64{0, 3, 1e6} {
		for _, mode := range []batch.IndexMode{batch.IndexAuto, batch.IndexEnumerate} {
			got, wantSt := gatewayJoin(t, gw, single, e, tau, mode)
			if got.Count == 0 && tau > 0 {
				t.Fatalf("tau %g: no matches on either side — the fixture proves nothing", tau)
			}
			// Additive counters survive the merge: every pair the
			// single-node join evaluated exactly was evaluated exactly
			// on some worker.
			if got.Stats.ExactComputed != wantSt.ExactComputed {
				t.Errorf("tau %g mode %v: exact_computed = %d through the gateway, %d single-node", tau, mode, got.Stats.ExactComputed, wantSt.ExactComputed)
			}
		}
	}
}

// TestClusterTopKIdentity: the gateway's top-k merge reconstructs
// corpus.TopKAcross exactly — each range's local top k under the global
// (dist, tree, root) order contains every global winner — also at the
// server's cap k = 100, which exceeds every range's subtree count.
func TestClusterTopKIdentity(t *testing.T) {
	path := buildSnapshot(t, 500)
	_, w1 := startWorker(t, path, nil)
	_, w2 := startWorker(t, path, nil)
	gw := newGateway(t, w1, w2)
	single, e := loadSnapshot(t, path)
	query := gen.Random(501, gen.RandomSpec{Size: 10, MaxDepth: 4, MaxFanout: 3, Labels: 8})

	for _, k := range []int{1, 5, 100} {
		want, _ := single.TopKAcross(e, single.PrepareQuery(e, query), k)
		var got server.TopKResponse
		if code := post(t, gw+"/v1/topk", server.TopKRequest{Query: server.TreeRef{Tree: query.String()}, K: k}, &got); code != 200 {
			t.Fatalf("k %d: status %d", k, code)
		}
		if !reflect.DeepEqual(got.Matches, wireTopK(want)) {
			t.Fatalf("k %d: gateway top-k diverged\ngot  %v\nwant %v", k, got.Matches, wireTopK(want))
		}
	}
}

// TestClusterWorkerKillReassignment: a worker that dies mid-range loses
// only that range — the gateway drops it, retires the worker and deals
// the range to another, so the merged match set is still exactly the
// single-node one (nothing lost, nothing duplicated). The healthy
// workers hold their first range until the doomed one has died, so it
// is sure to take one.
func TestClusterWorkerKillReassignment(t *testing.T) {
	path := buildSnapshot(t, 700)
	died := make(chan struct{})
	hold := holdUntil(t, died, "the doomed worker never took a range")
	_, w1 := startWorker(t, path, nil, hold)
	_, w2 := startWorker(t, path, dieOnJoin(died))
	_, w3 := startWorker(t, path, nil, hold)
	gw := newGateway(t, w1, w2, w3)
	single, e := loadSnapshot(t, path)

	gatewayJoin(t, gw, single, e, 1e6, batch.IndexAuto)
	// The fault fired: the worker's listener is closed.
	if conn, err := net.Dial("tcp", w2.Listener.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("the killed worker still accepts connections")
	}
}

// TestClusterWorkerDownBeforeRequest: a worker that is down before a
// request starts, or draining, is skipped — its share of the ranges goes
// to the workers that answer /v1/stats — instead of failing the request.
func TestClusterWorkerDownBeforeRequest(t *testing.T) {
	path := buildSnapshot(t, 800)
	_, w1 := startWorker(t, path, nil)
	_, w2 := startWorker(t, path, nil)
	s3, w3 := startWorker(t, path, nil)
	gw := newGateway(t, w1, w2, w3)
	single, e := loadSnapshot(t, path)

	w2.Close()
	s3.Drain()
	gatewayJoin(t, gw, single, e, 3, batch.IndexAuto)
}

// TestClusterWorkerProbeTimeout: workers whose /v1/stats never answers
// — a host that accepts connections but hangs — are skipped once the
// gateway's 5 s probe timeout passes, all probes running at once rather
// than one after another, and the worker that answers serves the join.
func TestClusterWorkerProbeTimeout(t *testing.T) {
	path := buildSnapshot(t, 800)
	hang := func(_ *httptest.Server, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/stats" {
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	_, w1 := startWorker(t, path, hang)
	_, w2 := startWorker(t, path, nil)
	_, w3 := startWorker(t, path, hang)
	gw := newGateway(t, w1, w2, w3)
	single, e := loadSnapshot(t, path)

	start := time.Now()
	gatewayJoin(t, gw, single, e, 3, batch.IndexAuto)
	if d := time.Since(start); d > 9*time.Second {
		t.Fatalf("join took %v: the hung probes ran one after another or without a timeout", d)
	}
}

// TestClusterAllWorkersDead: when every worker dies with ranges
// outstanding, the gateway answers 502 rather than a silently partial
// match set.
func TestClusterAllWorkersDead(t *testing.T) {
	path := buildSnapshot(t, 900)
	_, w := startWorker(t, path, dieOnJoin(make(chan struct{})))
	gw := newGateway(t, w)
	if code := post(t, gw+"/v1/join", server.JoinRequest{Tau: 1e6}, nil); code != 502 {
		t.Fatalf("join with no surviving worker: status %d, want 502", code)
	}
}

// TestClusterSnapshotMismatch: workers over different snapshots are
// refused before any range is dealt — partitioning positions across
// diverging corpora would merge garbage quietly — and the error names
// the worker that differs.
func TestClusterSnapshotMismatch(t *testing.T) {
	_, w1 := startWorker(t, buildSnapshot(t, 300), nil)
	_, w2 := startWorker(t, buildSnapshot(t, 301), nil)
	gw := newGateway(t, w1, w2)
	var e server.ErrorResponse
	if code := post(t, gw+"/v1/join", server.JoinRequest{Tau: 3}, &e); code != 502 {
		t.Fatalf("join across mismatched snapshots: status %d, want 502", code)
	}
	if !strings.Contains(e.Error, w2.URL) {
		t.Fatalf("error %q does not name the mismatched worker %s", e.Error, w2.URL)
	}
}

// TestClusterWorkerMutatedAfterProbe: a worker whose corpus changes
// after the gateway's probe — here it deletes tree 0 when its first
// range arrives, as a write sent to one worker behind a gateway would —
// answers that range 409, and the gateway answers 502 naming it instead
// of merging answers from two corpora: for a join, and for a top-k
// whose query is the deleted tree (the range is refused before the
// query id is resolved, so the client does not get the worker's 404).
// The other worker holds its first range until the mutation, so the
// mutated worker is sure to take one.
func TestClusterWorkerMutatedAfterProbe(t *testing.T) {
	path := buildSnapshot(t, 300)
	zero := int64(0)
	for route, req := range map[string]any{
		"/v1/join": server.JoinRequest{Tau: 3},
		"/v1/topk": server.TopKRequest{Query: server.TreeRef{ID: &zero}, K: 3},
	} {
		mutated := make(chan struct{})
		_, w1 := startWorker(t, path, nil, holdUntil(t, mutated, route+": the mutated worker never took a range"))
		var once sync.Once
		_, w2 := startWorker(t, path, func(_ *httptest.Server, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == route {
					once.Do(func() {
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/trees/0", nil))
						if rec.Code != http.StatusNoContent {
							t.Errorf("DELETE /v1/trees/0 on the worker: status %d", rec.Code)
						}
						close(mutated)
					})
				}
				h.ServeHTTP(w, r)
			})
		})
		gw := newGateway(t, w1, w2)
		var e server.ErrorResponse
		if code := post(t, gw+route, req, &e); code != 502 {
			t.Fatalf("%s over a worker mutated after the probe: status %d (%s), want 502", route, code, e.Error)
		}
		if !strings.Contains(e.Error, w2.URL) {
			t.Fatalf("%s: error %q does not name the mutated worker %s", route, e.Error, w2.URL)
		}
	}
}

// TestClusterWorkerWithoutFingerprint: workers whose /v1/stats carries
// no fingerprint — servers from before ranges, which would answer every
// range with their whole corpus — are refused with 502 naming one,
// though their tree counts and empty fingerprints agree.
func TestClusterWorkerWithoutFingerprint(t *testing.T) {
	path := buildSnapshot(t, 300)
	noFingerprint := func(_ *httptest.Server, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/stats" {
				st := h.(*server.Server).Stats()
				st.Fingerprint = ""
				json.NewEncoder(w).Encode(st)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	_, w1 := startWorker(t, path, noFingerprint)
	_, w2 := startWorker(t, path, noFingerprint)
	gw := newGateway(t, w1, w2)
	var e server.ErrorResponse
	if code := post(t, gw+"/v1/join", server.JoinRequest{Tau: 3}, &e); code != 502 {
		t.Fatalf("join over workers without a fingerprint: status %d, want 502", code)
	}
	if !strings.Contains(e.Error, w1.URL) {
		t.Fatalf("error %q does not name the worker without a fingerprint %s", e.Error, w1.URL)
	}
}

// TestClusterWorkerShed: a worker that sheds a range (503, its one heavy
// slot taken by a direct join and no queueing) sheds the gateway request
// too: 503 with Retry-After, which load tools count as a shed, not the
// 502 of a dead worker.
func TestClusterWorkerShed(t *testing.T) {
	path := buildSnapshot(t, 300)
	held, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	_, w := startWorker(t, path, nil, server.WithHeavySlots(1), server.WithQueueTimeout(0), server.WithAdmitHook(func() {
		if first.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
	}))
	gw := newGateway(t, w)

	direct := make(chan error, 1)
	go func() {
		resp, err := http.Post(w.URL+"/v1/join", "application/json", strings.NewReader(`{"tau":3}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != 200 {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		direct <- err
	}()
	<-held
	resp, err := http.Post(gw+"/v1/join", "application/json", strings.NewReader(`{"tau":3}`))
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("gateway join while its worker sheds: status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if err := <-direct; err != nil {
		t.Fatalf("the direct join holding the worker's slot: %v", err)
	}
}

// TestClusterClientCancel: a gateway client that hangs up stops the
// workers. Each worker holds its first range in the admit hook until
// its request context ends; cancelling the client's /v1/join must end
// it, and every worker — and the gateway — must release its slot and
// add nothing to its kernel counters.
func TestClusterClientCancel(t *testing.T) {
	path := buildSnapshot(t, 300)
	var (
		workers  []*server.Server
		tss      []*httptest.Server
		admitted = make(chan struct{}, 2)
	)
	for i := 0; i < 2; i++ {
		reqCtx := make(chan context.Context, 1)
		s, ts := startWorker(t, path, func(_ *httptest.Server, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/join" {
					reqCtx <- r.Context()
				}
				h.ServeHTTP(w, r)
			})
		}, server.WithAdmitHook(func() {
			ctx := <-reqCtx
			admitted <- struct{}{}
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Second):
				t.Error("a worker never saw the gateway's client hang up")
			}
		}))
		workers = append(workers, s)
		tss = append(tss, ts)
	}
	gwSrv := server.New(corpus.New(), server.WithClusterWorkers([]string{tss[0].URL, tss[1].URL}))
	gwTS := httptest.NewServer(gwSrv)
	t.Cleanup(gwTS.Close)
	gw := gwTS.URL
	var before []server.StatsResponse
	for _, s := range workers {
		before = append(before, s.Stats())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", gw+"/v1/join", strings.NewReader(`{"tau":3}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-admitted
	<-admitted
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled gateway join reported success")
	}

	for i, s := range append(workers, gwSrv) {
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().InFlight != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("server %d: in-flight slot not released after the client hung up: %d held", i, s.Stats().InFlight)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i, s := range workers {
		if after := s.Stats(); after.Counters != before[i].Counters {
			t.Fatalf("worker %d: cancelled range still ran: counters %+v → %+v", i, before[i].Counters, after.Counters)
		}
	}
}
