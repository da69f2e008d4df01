package load_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/load"
	"repro/server"
)

// TestE2EMultiTarget: the replica-fleet dispatch mode. Two servers over
// the same corpus, the request stream dealt round-robin, every response
// cross-checked against the in-process engine; the per-target counts
// must split the stream exactly in half and reconcile against the
// totals.
func TestE2EMultiTarget(t *testing.T) {
	c := e2eCorpus(t)
	mk := func() *httptest.Server {
		srv := server.New(c, server.WithMaxInFlight(16))
		srv.Warm()
		return httptest.NewServer(srv)
	}
	ts1, ts2 := mk(), mk()
	defer ts1.Close()
	defer ts2.Close()

	// Read-only mix: replicas of one corpus must answer identically, so
	// the single-engine cross-check holds for both targets.
	spec := load.Spec{
		Mix: map[string]float64{load.EpDistance: 3, load.EpBounded: 3, load.EpTopK: 2},
		Tau: 4, K: 3,
		Seed: 7, Conc: 4, Requests: 128,
	}
	cc := crossCheck(c, server.New(c).Engine())
	run := func(targets []string) *load.Result {
		t.Helper()
		r := &load.Runner{
			Targets: targets,
			Client:  ts1.Client(), Spec: spec, Snap: load.SnapshotOf(c),
			Check: cc,
		}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Total.Errors != 0 {
			t.Fatalf("run counted %d errors (first: %s)", res.Total.Errors, res.Total.FirstError)
		}
		return res
	}

	res := run([]string{ts1.URL, ts2.URL})
	if len(res.Targets) != 2 {
		t.Fatalf("per-target counts have %d entries, want 2: %+v", len(res.Targets), res.Targets)
	}
	var sum int64
	for _, u := range []string{ts1.URL, ts2.URL} {
		st, ok := res.Targets[u]
		if !ok {
			t.Fatalf("per-target counts miss %s", u)
		}
		// Round-robin over an even request count: exactly half each.
		if st.Requests() != int64(spec.Requests/2) || st.OK != st.Requests() {
			t.Fatalf("target %s: %d requests (%d ok), want %d clean", u, st.Requests(), st.OK, spec.Requests/2)
		}
		sum += st.Requests()
	}
	if sum != res.Total.Requests() {
		t.Fatalf("targets sum to %d requests, totals has %d", sum, res.Total.Requests())
	}

	// Generation is target-blind, so a single-target run sends the same
	// stream and counts the same totals.
	solo := run([]string{ts1.URL})
	if solo.Total != res.Total || !reflect.DeepEqual(solo.Endpoints, res.Endpoints) {
		t.Fatalf("single- and multi-target runs counted different streams: %+v vs %+v", solo.Total, res.Total)
	}
}
