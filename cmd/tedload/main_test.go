package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/corpus"
	"repro/gen"
	"repro/server"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	c := corpus.New(corpus.WithHistogramIndex())
	for i := 0; i < 6; i++ {
		base := gen.Random(int64(40+i), gen.RandomSpec{Size: 16 + i, MaxDepth: 8, MaxFanout: 4, Labels: 8})
		c.Add(base)
		c.Add(gen.RenameSome(base, 1+i%2, int64(i)))
	}
	srv := server.New(c)
	srv.Warm()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// stubServer serves a two-tree snapshot and answers every workload
// request with status code.
func stubServer(t *testing.T, code int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/stats":
			fmt.Fprint(w, `{"trees": 2}`)
		case "/v1/trees/0", "/v1/trees/1":
			fmt.Fprintf(w, `{"id": %s, "tree": "{a{b}}"}`, strings.TrimPrefix(r.URL.Path, "/v1/trees/"))
		default:
			w.WriteHeader(code)
			fmt.Fprint(w, `{"error": "stub"}`)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRunCleanServer: the CLI end to end — snapshot over HTTP, a short
// mixed run against a real server, the table on stdout, and a nil
// error because nothing failed.
func TestRunCleanServer(t *testing.T) {
	ts := testServer(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-url", ts.URL,
		"-mix", "distance=3,bounded=2,topk=1,mutate=1",
		"-tau", "4", "-k", "2",
		"-seed", "5", "-conc", "4", "-n", "60",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "TOTAL\t60\t60\t0\t0\n") {
		t.Errorf("stdout lacks a clean TOTAL row of 60 requests:\n%s", stdout.String())
	}
}

// TestRunFailsOnError: a wrong HTTP answer makes run return an error
// naming the error count and the first error — the exit status the
// smoke scripts gate on.
func TestRunFailsOnError(t *testing.T) {
	ts := stubServer(t, http.StatusInternalServerError)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-url", ts.URL, "-mix", "distance=1", "-conc", "2", "-n", "20"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "20 errors") || !strings.Contains(err.Error(), "distance: status 500") {
		t.Fatalf("run = %v, want an error naming 20 errors and the first (distance: status 500)\nstdout: %s", err, stdout.String())
	}
}

// TestRunShedIsNotError: a server that sheds every request fails
// nothing; the table counts every request as shed.
func TestRunShedIsNotError(t *testing.T) {
	ts := stubServer(t, http.StatusServiceUnavailable)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-url", ts.URL, "-mix", "distance=1,bounded=1", "-conc", "2", "-n", "20"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "TOTAL\t20\t0\t20\t0\n") {
		t.Errorf("stdout lacks a TOTAL row of 20 shed requests:\n%s", stdout.String())
	}
}

// TestRunFlagErrors: the CLI refuses malformed invocations.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                // missing -url
		{"-url", "x", "-mix", "bogus=1"},  // unknown endpoint
		{"-url", "x", "-mix", "distance"}, // malformed mix
		{"-url", "x", "-n", "0"},          // nothing to send
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
