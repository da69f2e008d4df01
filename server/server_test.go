package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/server"
)

var fixtureTrees = []string{
	"{a{b}{c}}",
	"{a{b}{c{d}}}",
	"{a{b}}",
	"{x{y{z}}}",
	"{a{b}{c}{d}}",
	"{q{r{s}{t}}}",
}

func newFixture(t *testing.T, opts ...server.Option) (*corpus.Corpus, *server.Server, *httptest.Server) {
	t.Helper()
	c := corpus.New(corpus.WithHistogramIndex())
	for _, s := range fixtureTrees {
		c.Add(ted.MustParse(s))
	}
	s := server.New(c, opts...)
	s.Warm()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return c, s, ts
}

// call posts a JSON request and decodes the JSON response, returning
// the status code.
func call(t *testing.T, method, url string, req, resp any) int {
	t.Helper()
	var body io.Reader
	if req != nil {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		body = bytes.NewReader(raw)
	}
	hreq, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer hresp.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return hresp.StatusCode
}

func ref(s string) server.TreeRef   { return server.TreeRef{Tree: s} }
func refID(id int64) server.TreeRef { return server.TreeRef{ID: &id} }

// TestDistanceEndpoints cross-checks every distance answer against the
// in-process engine, for ad-hoc trees, stored ids, and mixtures.
func TestDistanceEndpoints(t *testing.T) {
	c, s, ts := newFixture(t)
	e := s.Engine()
	pf, _ := c.Prepared(e, 0)
	pg, _ := c.Prepared(e, 3)

	var resp server.DistanceResponse
	if code := call(t, "POST", ts.URL+"/v1/distance",
		server.DistanceRequest{F: refID(0), G: refID(3)}, &resp); code != 200 {
		t.Fatalf("distance by id: status %d", code)
	}
	if want := e.Distance(pf, pg); resp.Dist != want {
		t.Fatalf("distance by id = %g, want %g", resp.Dist, want)
	}

	if code := call(t, "POST", ts.URL+"/v1/distance",
		server.DistanceRequest{F: ref("{a{b}{c}}"), G: refID(3)}, &resp); code != 200 {
		t.Fatalf("mixed distance: status %d", code)
	}
	if want := e.Distance(pf, pg); resp.Dist != want {
		t.Fatalf("mixed distance = %g, want %g", resp.Dist, want)
	}

	// Bounded: a tau below the distance answers not-within, at or above
	// answers within with the exact distance.
	d := e.Distance(pf, pg)
	var b server.DistanceBoundedResponse
	call(t, "POST", ts.URL+"/v1/distance-bounded",
		server.DistanceBoundedRequest{F: refID(0), G: refID(3), Tau: d}, &b)
	if !b.Within || b.Dist != d {
		t.Fatalf("bounded at tau=d: within=%v dist=%g, want true, %g", b.Within, b.Dist, d)
	}
	call(t, "POST", ts.URL+"/v1/distance-bounded",
		server.DistanceBoundedRequest{F: refID(0), G: refID(3), Tau: d - 1}, &b)
	if b.Within || b.Dist < d-1 {
		t.Fatalf("bounded at tau=d-1: within=%v dist=%g", b.Within, b.Dist)
	}
}

// TestJoinEndpointMatchesInProcess is the server-side half of the smoke
// contract: the HTTP join must agree with corpus.Join exactly.
func TestJoinEndpointMatchesInProcess(t *testing.T) {
	c, s, ts := newFixture(t)
	for _, mode := range []string{"auto", "enumerate", "histogram"} {
		var resp server.JoinResponse
		if code := call(t, "POST", ts.URL+"/v1/join",
			server.JoinRequest{Tau: 3, Mode: mode}, &resp); code != 200 {
			t.Fatalf("join %s: status %d", mode, code)
		}
		want, _ := c.Join(s.Engine(), 3, batch.JoinOptions{Mode: mustMode(t, mode)})
		if resp.Count != len(want) || len(resp.Matches) != len(want) {
			t.Fatalf("join %s: %d matches, want %d", mode, resp.Count, len(want))
		}
		for i, m := range want {
			got := resp.Matches[i]
			if got.I != int64(m.I) || got.J != int64(m.J) || got.Dist != m.Dist {
				t.Fatalf("join %s: match %d = %+v, want %+v", mode, i, got, m)
			}
		}
	}

	// Limit truncates but reports the full count.
	var limited server.JoinResponse
	call(t, "POST", ts.URL+"/v1/join", server.JoinRequest{Tau: 100, Limit: 1}, &limited)
	if len(limited.Matches) != 1 || !limited.Truncated || limited.Count <= 1 {
		t.Fatalf("limited join: %d matches, truncated=%v, count=%d",
			len(limited.Matches), limited.Truncated, limited.Count)
	}
}

func mustMode(t *testing.T, s string) batch.IndexMode {
	t.Helper()
	switch s {
	case "auto":
		return batch.IndexAuto
	case "enumerate":
		return batch.IndexEnumerate
	case "histogram":
		return batch.IndexHistogram
	case "pqgram":
		return batch.IndexPQGram
	}
	t.Fatalf("bad mode %q", s)
	return 0
}

func TestTopKEndpointMatchesInProcess(t *testing.T) {
	c, s, ts := newFixture(t)
	var resp server.TopKResponse
	if code := call(t, "POST", ts.URL+"/v1/topk",
		server.TopKRequest{Query: ref("{a{b}{c}}"), K: 4}, &resp); code != 200 {
		t.Fatalf("topk: status %d", code)
	}
	q := c.PrepareQuery(s.Engine(), ted.MustParse("{a{b}{c}}"))
	want, _ := c.TopKAcross(s.Engine(), q, 4)
	if len(resp.Matches) != len(want) {
		t.Fatalf("topk: %d matches, want %d", len(resp.Matches), len(want))
	}
	for i, m := range want {
		got := resp.Matches[i]
		if got.Tree != int64(m.Tree) || got.Root != m.Root || got.Dist != m.Dist {
			t.Fatalf("topk: match %d = %+v, want %+v", i, got, m)
		}
	}
}

// TestTreeMutations drives the full CRUD surface over a WAL-attached
// corpus and proves the acknowledged mutations survive a reopen.
func TestTreeMutations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.tedc")
	c, err := corpus.Open(path, corpus.WithHistogramIndex())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s := server.New(c)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var tr server.TreeResponse
	if code := call(t, "POST", ts.URL+"/v1/trees", server.TreeRequest{Tree: "{a{b}}"}, &tr); code != 201 {
		t.Fatalf("add: status %d", code)
	}
	id2 := tr
	if code := call(t, "POST", ts.URL+"/v1/trees", server.TreeRequest{Tree: "{a{c}}"}, &id2); code != 201 {
		t.Fatalf("add 2: status %d", code)
	}
	if code := call(t, "PUT", fmt.Sprintf("%s/v1/trees/%d", ts.URL, tr.ID),
		server.TreeRequest{Tree: "{z{w}}"}, nil); code != 200 {
		t.Fatalf("put: status %d", code)
	}
	var got server.TreeResponse
	if code := call(t, "GET", fmt.Sprintf("%s/v1/trees/%d", ts.URL, tr.ID), nil, &got); code != 200 {
		t.Fatalf("get: status %d", code)
	}
	if got.Tree != "{z{w}}" {
		t.Fatalf("get after put = %q, want {z{w}}", got.Tree)
	}
	if code := call(t, "DELETE", fmt.Sprintf("%s/v1/trees/%d", ts.URL, id2.ID), nil, nil); code != 204 {
		t.Fatalf("delete: status %d", code)
	}
	if code := call(t, "GET", fmt.Sprintf("%s/v1/trees/%d", ts.URL, id2.ID), nil, nil); code != 404 {
		t.Fatalf("get deleted: status %d", code)
	}
	if code := call(t, "DELETE", fmt.Sprintf("%s/v1/trees/%d", ts.URL, id2.ID), nil, nil); code != 404 {
		t.Fatalf("double delete: status %d", code)
	}

	// Shut the server's corpus (releasing the single-writer lock, as a
	// dead process's kernel would) without any Save or Checkpoint: every
	// acknowledged mutation must come back from the log alone.
	ts.Close()
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	before := map[int64]string{tr.ID: "{z{w}}"}
	reopened, err := corpus.Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if reopened.Len() != len(before) {
		t.Fatalf("reopened corpus has %d trees, want %d", reopened.Len(), len(before))
	}
	for id, want := range before {
		tt, ok := reopened.Tree(corpus.ID(id))
		if !ok || tt.String() != want {
			t.Fatalf("tree %d = %v, want %s", id, tt, want)
		}
	}
}

func TestValidation(t *testing.T) {
	_, _, ts := newFixture(t, server.WithMaxNodes(10), server.WithMaxBodyBytes(256))
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"negative tau", "/v1/join", `{"tau": -1}`, 400},
		{"NaN tau", "/v1/distance-bounded", `{"f":{"tree":"{a}"},"g":{"tree":"{a}"},"tau":"x"}`, 400},
		{"bad mode", "/v1/join", `{"tau": 2, "mode": "quantum"}`, 400},
		{"k too big", "/v1/topk", `{"query":{"tree":"{a}"},"k":101}`, 400},
		{"k zero", "/v1/topk", `{"query":{"tree":"{a}"},"k":0}`, 400},
		{"bad tree", "/v1/distance", `{"f":{"tree":"{{{"},"g":{"tree":"{a}"}}`, 400},
		{"both id and tree", "/v1/distance", `{"f":{"id":0,"tree":"{a}"},"g":{"tree":"{a}"}}`, 400},
		{"missing ref", "/v1/distance", `{"g":{"tree":"{a}"}}`, 400},
		{"unknown id", "/v1/distance", `{"f":{"id":99},"g":{"tree":"{a}"}}`, 404},
		{"tree too big", "/v1/trees", `{"tree":"{a{b}{b}{b}{b}{b}{b}{b}{b}{b}{b}}"}`, 400},
		{"body too big", "/v1/trees", `{"tree":"` + strings.Repeat("x", 300) + `"}`, 413},
		{"garbage body", "/v1/join", `not json`, 400},
		{"negative range", "/v1/join", `{"tau": 2, "range": {"lo": -1, "hi": 3}}`, 400},
		{"inverted range", "/v1/topk", `{"query":{"tree":"{a}"},"k":1,"range":{"lo":3,"hi":2}}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("post: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				raw, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, raw)
			}
			var e server.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error == "" {
				t.Fatalf("error response without an error message")
			}
		})
	}
}

// TestAdmissionControl fills the gate and verifies the bounded-wait 503
// contract, then releases and verifies recovery.
func TestAdmissionControl(t *testing.T) {
	_, s, ts := newFixture(t,
		server.WithMaxInFlight(2), server.WithQueueTimeout(50*time.Millisecond))
	if s.MaxInFlight() != 2 {
		t.Fatalf("max in flight = %d, want 2", s.MaxInFlight())
	}
	release := s.OccupySlots(2)
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", strings.NewReader(`{"tau":2}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("full gate: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After")
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("refused after %v, before the queue timeout", waited)
	}
	release()
	resp, err = http.Post(ts.URL+"/v1/join", "application/json", strings.NewReader(`{"tau":2}`))
	if err != nil {
		t.Fatalf("post after release: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}

	var st server.StatsResponse
	if code := call(t, "GET", ts.URL+"/v1/stats", nil, &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if st.Rejected < 1 || st.Admitted < 1 || st.MaxInFlight != 2 {
		t.Fatalf("stats %+v: expected ≥1 rejected, ≥1 admitted, cap 2", st)
	}
}

// TestDrain: after Drain, requests and health probes get 503 — the
// load-balancer signal — while the handler keeps answering them rather
// than hanging.
func TestDrain(t *testing.T) {
	_, s, ts := newFixture(t)
	if code := call(t, "GET", ts.URL+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz before drain: %d", code)
	}
	s.Drain()
	if !s.Draining() {
		t.Fatalf("Draining() false after Drain")
	}
	if code := call(t, "GET", ts.URL+"/healthz", nil, nil); code != 503 {
		t.Fatalf("healthz during drain: %d, want 503", code)
	}
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", strings.NewReader(`{"tau":2}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("join during drain: %d, want 503", resp.StatusCode)
	}
	// Stats stay up for observability during the drain.
	if code := call(t, "GET", ts.URL+"/v1/stats", nil, nil); code != 200 {
		t.Fatalf("stats during drain: %d", code)
	}
}

// TestServerJoinAfterMutations: the maintained index and the prepared
// cache stay coherent through the mutation endpoints — an indexed join
// after CRUD equals an enumerated one.
func TestServerJoinAfterMutations(t *testing.T) {
	c, s, ts := newFixture(t)
	var tr server.TreeResponse
	call(t, "POST", ts.URL+"/v1/trees", server.TreeRequest{Tree: "{a{b}{c{d}{e}}}"}, &tr)
	call(t, "PUT", fmt.Sprintf("%s/v1/trees/%d", ts.URL, tr.ID), server.TreeRequest{Tree: "{a{b}{c{d}}}"}, nil)
	call(t, "DELETE", ts.URL+"/v1/trees/1", nil, nil)

	var hist, enum server.JoinResponse
	call(t, "POST", ts.URL+"/v1/join", server.JoinRequest{Tau: 4, Mode: "histogram"}, &hist)
	call(t, "POST", ts.URL+"/v1/join", server.JoinRequest{Tau: 4, Mode: "enumerate"}, &enum)
	if !reflect.DeepEqual(hist.Matches, enum.Matches) {
		t.Fatalf("indexed join after mutations %v, enumerated %v", hist.Matches, enum.Matches)
	}
	want, _ := c.Join(s.Engine(), 4, batch.JoinOptions{Mode: batch.IndexEnumerate})
	if len(want) != len(enum.Matches) {
		t.Fatalf("server join %d matches, in-process %d", len(enum.Matches), len(want))
	}
}

// TestTauInfinityRejected: JSON has no Inf literal; the decoder must
// turn the encoding attempt into a 400, not a panic or a silent zero.
func TestTauStringRejected(t *testing.T) {
	_, _, ts := newFixture(t)
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", strings.NewReader(`{"tau":"Infinity"}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("string tau: status %d, want 400", resp.StatusCode)
	}
}
