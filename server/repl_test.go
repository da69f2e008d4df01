package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	ted "repro"
	"repro/cluster"
	"repro/corpus"
	"repro/server"
)

func replStats() cluster.FollowerStats {
	staleness := int64(250)
	return cluster.FollowerStats{Primary: "http://primary:8420", Gen: "aabbccdd00112233", AppliedSeq: 7, PrimarySeq: 7, StalenessMS: &staleness}
}

// TestReplicaRefusesWrites: a server in replica mode answers reads and
// refuses every mutation with 403 — writes flow through the primary's
// log, never sideways into a follower.
func TestReplicaRefusesWrites(t *testing.T) {
	c := corpus.New()
	for _, s := range fixtureTrees {
		tr, err := ted.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		c.Add(tr)
	}
	srv := server.New(c, server.WithReplica(replStats, nil, 0))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/trees", "application/json", strings.NewReader(`{"tree":"{a{b}}"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("POST /v1/trees on a replica = %d, want 403", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/trees/0", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("DELETE /v1/trees/0 on a replica = %d, want 403", resp.StatusCode)
	}

	// Reads still work, and /v1/stats carries the replica telemetry.
	resp, err = http.Post(ts.URL+"/v1/distance", "application/json",
		strings.NewReader(`{"f":{"id":0},"g":{"id":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read on an unbounded replica = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !st.ReadOnly || st.Replication == nil || st.Replication.Primary != "http://primary:8420" {
		t.Fatalf("replica stats lack telemetry: %+v", st)
	}
}

// TestReplicaStatsKeys pins the keys of a replica's /v1/stats
// "replication" object, which operators and scripts/cluster_smoke.sh
// read (.replication.lag): last_err appears only when set, and
// staleness_ms only once the follower has been fresh.
func TestReplicaStatsKeys(t *testing.T) {
	base := []string{"applied_seq", "checkpoint_ships", "gen", "lag", "primary", "primary_seq", "records"}
	for _, c := range []struct {
		lastErr    string
		neverFresh bool
		want       []string
	}{
		{"", false, append(slices.Clone(base), "staleness_ms")},
		{"connection refused", false, append(slices.Clone(base), "last_err", "staleness_ms")},
		{"connection refused", true, append(slices.Clone(base), "last_err")},
	} {
		st := replStats()
		st.LastErr = c.lastErr
		if c.neverFresh {
			st.StalenessMS = nil
		}
		srv := server.New(corpus.New(), server.WithReplica(func() cluster.FollowerStats { return st }, nil, 0))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var body struct {
			Replication map[string]json.RawMessage `json:"replication"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET /v1/stats: %v (%d %s)", err, rec.Code, rec.Body)
		}
		var keys []string
		for k := range body.Replication {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sort.Strings(c.want)
		if !slices.Equal(keys, c.want) {
			t.Fatalf("last_err %q, never fresh %v: replication keys %v, want %v", c.lastErr, c.neverFresh, keys, c.want)
		}
		if !c.neverFresh && string(body.Replication["staleness_ms"]) != "250" {
			t.Fatalf("staleness_ms = %s, want 250", body.Replication["staleness_ms"])
		}
	}
}

// TestReplicaStalenessGuard: with a max-staleness bound, a replica that
// cannot prove it is caught up refuses reads with 503 + Retry-After
// instead of silently serving old data.
func TestReplicaStalenessGuard(t *testing.T) {
	c := corpus.New()
	tr, err := ted.Parse("{a{b}}")
	if err != nil {
		t.Fatal(err)
	}
	c.Add(tr)

	stale := time.Hour
	srv := server.New(c, server.WithReplica(replStats, func() time.Duration { return stale }, time.Second))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/distance", "application/json",
			strings.NewReader(`{"f":{"id":0},"g":{"id":0}}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get(); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("stale replica read = %d (Retry-After %q), want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	stale = 0 // caught up again: reads resume
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh replica read = %d, want 200", resp.StatusCode)
	}
}

// TestWALEndpoint pins the primary side of the replication wire: the
// stream carries the log records in on-disk framing plus a terminal
// progress frame, headers announce the position, a truncated-away (or
// never-held) position gets 409, and /v1/checkpoint returns a loadable
// snapshot stamped with its cut position.
func TestWALEndpoint(t *testing.T) {
	dir := t.TempDir()
	c, err := corpus.Open(filepath.Join(dir, "p.tedc"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range fixtureTrees[:3] {
		tr, err := ted.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		c.Add(tr)
	}
	pos := c.ReplState()

	ts := httptest.NewServer(server.New(c))
	defer ts.Close()

	// Unknown generation (a fresh follower, or one truncated away) → 409.
	for _, gen := range []string{"", "feedbeef00000000"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/wal?gen=%s&from=0", ts.URL, gen))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("gen %q: status %d, want 409", gen, resp.StatusCode)
		}
	}

	// A live position streams the records.
	resp, err := http.Get(fmt.Sprintf("%s/v1/wal?gen=%s&from=0&wait=0s", ts.URL, pos.Gen))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live position: status %d, want 200", resp.StatusCode)
	}
	if g := resp.Header.Get("X-Ted-Wal-Gen"); g != pos.Gen {
		t.Fatalf("X-Ted-Wal-Gen = %q, want %q", g, pos.Gen)
	}
	br := bufio.NewReader(resp.Body)
	records, lastProgress := 0, -1
	for {
		body, err := corpus.ReadWALFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seq, ok := corpus.DecodeProgress(body); ok {
			lastProgress = seq
		} else {
			records++
		}
	}
	if records != 3 || lastProgress != 3 {
		t.Fatalf("stream carried %d records, final progress %d; want 3 and 3", records, lastProgress)
	}

	// The checkpoint endpoint ships a loadable snapshot at the same cut.
	resp, err = http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ted-Wal-Gen") != pos.Gen || resp.Header.Get("X-Ted-Wal-Seq") != "3" {
		t.Fatalf("checkpoint: status %d, gen %q, seq %q", resp.StatusCode, resp.Header.Get("X-Ted-Wal-Gen"), resp.Header.Get("X-Ted-Wal-Seq"))
	}
	sc, err := corpus.Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 3 {
		t.Fatalf("shipped snapshot holds %d trees, want 3", sc.Len())
	}

	// A corpus without a log cannot serve either endpoint.
	ts2 := httptest.NewServer(server.New(corpus.New()))
	defer ts2.Close()
	for _, ep := range []string{"/v1/wal?gen=x&from=0", "/v1/checkpoint"} {
		resp, err := http.Get(ts2.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s without a WAL: status %d, want 503", ep, resp.StatusCode)
		}
	}
}
