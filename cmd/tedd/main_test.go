package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/corpus"
	"repro/server"
)

// TestServeLifecycle boots the daemon on a fresh corpus, drives the API
// end to end (health, mutations, distance, join), shuts it down via
// context cancellation, and verifies both the graceful checkpoint and
// that a second boot serves the mutated corpus.
func TestServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.tedc")

	boot := func(ctx context.Context) (addr string, done chan error) {
		ready := make(chan string, 1)
		done = make(chan error, 1)
		var logs bytes.Buffer
		go func() {
			done <- run(ctx, []string{
				"-corpus", path, "-addr", "127.0.0.1:0", "-drain-timeout", "5s",
			}, &logs, ready)
		}()
		select {
		case addr = <-ready:
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v\n%s", err, logs.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon never became ready\n%s", logs.String())
		}
		return addr, done
	}

	ctx, cancel := context.WithCancel(context.Background())
	addr, done := boot(ctx)
	base := "http://" + addr

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	postJSON := func(pathq string, req, out any) int {
		raw, _ := json.Marshal(req)
		resp, err := http.Post(base+pathq, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", pathq, err)
		}
		defer resp.Body.Close()
		if out != nil {
			json.NewDecoder(resp.Body).Decode(out)
		}
		return resp.StatusCode
	}

	var tr server.TreeResponse
	for _, s := range []string{"{a{b}{c}}", "{a{b}}", "{a{b}{c{d}}}"} {
		if code := postJSON("/v1/trees", server.TreeRequest{Tree: s}, &tr); code != 201 {
			t.Fatalf("add %s: status %d", s, code)
		}
	}
	var d server.DistanceResponse
	id := int64(0)
	if code := postJSON("/v1/distance", server.DistanceRequest{
		F: server.TreeRef{ID: &id}, G: server.TreeRef{Tree: "{a{b}{x}}"},
	}, &d); code != 200 {
		t.Fatalf("distance: status %d", code)
	}
	if d.Dist != 1 {
		t.Fatalf("distance = %g, want 1", d.Dist)
	}
	var j server.JoinResponse
	if code := postJSON("/v1/join", server.JoinRequest{Tau: 2}, &j); code != 200 {
		t.Fatalf("join: status %d", code)
	}

	// Graceful shutdown: cancel the context, wait for run to return,
	// then check the WAL was folded into the snapshot.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down")
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("no snapshot after graceful shutdown: %v", err)
	}
	if st, err := os.Stat(path + ".wal"); err != nil || st.Size() != 5 {
		t.Fatalf("WAL not truncated by the shutdown checkpoint: %v (size %v)", err, st.Size())
	}

	// Second boot: the snapshot serves, and the join matches the first
	// process's answer.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	addr2, done2 := boot(ctx2)
	base = "http://" + addr2
	var j2 server.JoinResponse
	if code := postJSON("/v1/join", server.JoinRequest{Tau: 2}, &j2); code != 200 {
		t.Fatalf("join after restart: status %d", code)
	}
	if len(j2.Matches) != len(j.Matches) {
		t.Fatalf("join after restart: %d matches, want %d", len(j2.Matches), len(j.Matches))
	}
	for i := range j.Matches {
		if j.Matches[i] != j2.Matches[i] {
			t.Fatalf("match %d diverged across restart: %+v vs %+v", i, j.Matches[i], j2.Matches[i])
		}
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second run: %v", err)
	}

	// The restarted corpus is a real corpus file: openable directly.
	c, err := corpus.LoadFile(path)
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	if c.Len() != 3 {
		t.Fatalf("snapshot has %d trees, want 3", c.Len())
	}
}

func TestRunFlagValidation(t *testing.T) {
	var logs bytes.Buffer
	if err := run(context.Background(), nil, &logs, nil); err == nil {
		t.Fatalf("missing -corpus accepted")
	}
	if err := run(context.Background(), []string{"-corpus", "x.tedc", "-index", "wat"}, &logs, nil); err == nil {
		t.Fatalf("bad -index accepted")
	}
	if err := run(context.Background(), []string{"-corpus", "x.tedc", "-index", "pqgram", "-q", "0"}, &logs, nil); err == nil {
		t.Fatalf("-q 0 accepted")
	}
	// A worker address of the retired TCP protocol is refused at startup,
	// not left to answer 502 on every join.
	err := run(context.Background(), []string{"-corpus", "x.tedc", "-cluster-workers", "http://127.0.0.1:8420,host:7411"}, &logs, nil)
	if err == nil || !strings.Contains(err.Error(), `"host:7411"`) {
		t.Fatalf("-cluster-workers host:7411: %v, want an error naming the entry", err)
	}
}
