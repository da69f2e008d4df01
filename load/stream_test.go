package load_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/load"
)

// stubSnap is a minimal snapshot for runs against stub servers that
// never look at the generated operands.
var stubSnap = load.Snapshot{IDs: []int64{0, 1}, Trees: []string{"{a}", "{a{b}}"}}

// TestStreamWithoutDoneIsError: a stream that ends without the terminal
// done record was cut short and must count as an error — never as a
// fast success.
func TestStreamWithoutDoneIsError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"match":{"i":0,"j":1,"dist":1}}`)
	}))
	defer ts.Close()

	spec := load.Spec{
		Mix: map[string]float64{load.EpTopKStream: 1},
		Tau: 2, K: 1, Seed: 5, Conc: 1, Requests: 3,
	}
	r := &load.Runner{Targets: []string{ts.URL}, Client: ts.Client(), Spec: spec, Snap: stubSnap}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Endpoints[load.EpTopKStream]
	if st.OK != 0 || st.Errors != int64(spec.Requests) {
		t.Fatalf("truncated streams counted %d ok / %d errors, want 0 / %d", st.OK, st.Errors, spec.Requests)
	}
	if st.FirstError == "" {
		t.Fatal("no first error recorded for the truncated streams")
	}
}

// TestTenantHeaderApplied: a Spec.Tenant must reach the server on every
// request as the X-Tenant header the admission quotas key on.
func TestTenantHeaderApplied(t *testing.T) {
	var tagged, total atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		total.Add(1)
		if r.Header.Get("X-Tenant") == "acme" {
			tagged.Add(1)
		}
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()

	spec := load.Spec{
		Mix:    map[string]float64{load.EpDistance: 1},
		Tenant: "acme",
		Seed:   9, Conc: 2, Requests: 7,
	}
	r := &load.Runner{Targets: []string{ts.URL}, Client: ts.Client(), Spec: spec, Snap: stubSnap}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Errors != 0 {
		t.Fatalf("errors: %d (first: %s)", res.Total.Errors, res.Total.FirstError)
	}
	if got, n := tagged.Load(), total.Load(); got != n || n == 0 {
		t.Fatalf("%d of %d requests carried X-Tenant: acme", got, n)
	}
}

// TestFetchSnapshotStatus: a 200 is a tree and a 404 a gap, but any
// other status — a 503 from admission or a stale replica — fails the
// snapshot instead of being stored as a tree with id 0.
func TestFetchSnapshotStatus(t *testing.T) {
	trees := map[string]string{"0": "{a}", "2": "{a{b}}"}
	serve := func(code int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/stats" {
				if code == http.StatusInternalServerError {
					w.WriteHeader(code)
				}
				fmt.Fprint(w, `{"trees": 2}`)
				return
			}
			id := strings.TrimPrefix(r.URL.Path, "/v1/trees/")
			if tree, ok := trees[id]; ok {
				fmt.Fprintf(w, `{"id": %s, "tree": %q}`, id, tree)
				return
			}
			w.WriteHeader(code)
			fmt.Fprint(w, `{"error": "unavailable"}`)
		}))
	}

	gap := serve(http.StatusNotFound)
	defer gap.Close()
	snap, err := load.FetchSnapshot(gap.Client(), gap.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := load.Snapshot{IDs: []int64{0, 2}, Trees: []string{"{a}", "{a{b}}"}}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("FetchSnapshot over a gap = %+v, want %+v", snap, want)
	}

	shed := serve(http.StatusServiceUnavailable)
	defer shed.Close()
	if snap, err := load.FetchSnapshot(shed.Client(), shed.URL); err == nil || !strings.Contains(err.Error(), "tree 1: status 503") {
		t.Fatalf("FetchSnapshot over a 503 = %+v, %v; want an error naming tree 1 and status 503", snap, err)
	}

	stats := serve(http.StatusInternalServerError)
	defer stats.Close()
	if snap, err := load.FetchSnapshot(stats.Client(), stats.URL); err == nil || !strings.Contains(err.Error(), "stats: status 500") {
		t.Fatalf("FetchSnapshot with failing stats = %+v, %v; want an error naming status 500", snap, err)
	}
}
