package load_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/load"
	"repro/server"
)

// TestE2EMultiTarget: the replica-fleet dispatch mode. Two servers over
// the same corpus, the request stream dealt round-robin, every response
// cross-checked against the in-process engine; the report must carry a
// per-target breakdown that splits the stream exactly in half and
// reconciles against the merged totals.
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
		Seed: 7, Conc: 4, Warmup: 8, Requests: 120,
	}
	cc := crossCheck(c, server.New(c).Engine())
	run := func(targets []string) *load.Report {
		t.Helper()
		r := &load.Runner{
			Base: targets[0], Targets: targets,
			Client: ts1.Client(), Spec: spec, Snap: load.SnapshotOf(c),
			GitRev: "e2e-test",
			Check:  cc,
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("report fails schema: %v", err)
		}
		if rep.WarmupErrors != 0 || rep.Totals.Errors != 0 {
			t.Fatalf("run counted errors: warmup %d, measured %d (first: %s)",
				rep.WarmupErrors, rep.Totals.Errors, rep.Totals.FirstError)
		}
		return rep
	}

	rep := run([]string{ts1.URL, ts2.URL})
	if rep.Target != ts1.URL+","+ts2.URL {
		t.Fatalf("target = %q, want the comma-joined fleet", rep.Target)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("targets block has %d entries, want 2: %+v", len(rep.Targets), rep.Targets)
	}
	var sum int64
	for _, u := range []string{ts1.URL, ts2.URL} {
		st, ok := rep.Targets[u]
		if !ok {
			t.Fatalf("targets block missing %s", u)
		}
		// Round-robin over an even request count: exactly half each.
		if st.Requests != int64(spec.Requests/2) || st.OK != st.Requests {
			t.Fatalf("target %s: %d requests (%d ok), want %d clean", u, st.Requests, st.OK, spec.Requests/2)
		}
		sum += st.Requests
	}
	if sum != rep.Totals.Requests {
		t.Fatalf("targets sum to %d requests, totals has %d", sum, rep.Totals.Requests)
	}

	// The artifact round-trips with the targets block intact.
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := load.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("report did not round-trip:\nwrote %+v\nread  %+v", rep, back)
	}

	// A single-target run emits no targets block (schema v3 stays
	// byte-compatible with v2 artifacts there), and an identical stream:
	// generation is target-blind, so the merged totals are comparable.
	solo := run([]string{ts1.URL})
	if solo.Targets != nil {
		t.Fatalf("single-target run emitted a targets block: %+v", solo.Targets)
	}
	if solo.Totals.Requests != rep.Totals.Requests || solo.Totals.OK != rep.Totals.OK {
		t.Fatalf("single- and multi-target runs measured different streams: %+v vs %+v", solo.Totals, rep.Totals)
	}
}

// TestValidateTargets pins the schema contract for the targets block:
// it must reconcile against totals, and every entry must satisfy the
// per-entry invariants.
func TestValidateTargets(t *testing.T) {
	base := func() *load.Report {
		return &load.Report{
			Bench: "serve", SchemaVersion: load.SchemaVersion, GitRev: "x",
			Target: "a,b",
			Spec: load.Spec{
				Mix: map[string]float64{load.EpDistance: 1}, K: 1, Conc: 1, Requests: 4,
			},
			WallSeconds: 1,
			Endpoints: map[string]load.EndpointStats{
				load.EpDistance: {Requests: 4, OK: 4, P50ms: 1, P90ms: 1, P99ms: 1, MaxMS: 1, ThroughputRPS: 4},
			},
			Totals: load.EndpointStats{Requests: 4, OK: 4, P50ms: 1, P90ms: 1, P99ms: 1, MaxMS: 1, ThroughputRPS: 4},
			Targets: map[string]load.EndpointStats{
				"a": {Requests: 2, OK: 2, P50ms: 1, P90ms: 1, P99ms: 1, MaxMS: 1, ThroughputRPS: 2},
				"b": {Requests: 2, OK: 2, P50ms: 1, P90ms: 1, P99ms: 1, MaxMS: 1, ThroughputRPS: 2},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("well-formed v3 report rejected: %v", err)
	}

	short := base()
	st := short.Targets["b"]
	st.Requests, st.OK = 1, 1
	short.Targets["b"] = st
	if err := short.Validate(); err == nil {
		t.Fatal("targets that undercount totals validated")
	}

	bad := base()
	st = bad.Targets["a"]
	st.OK = 1 // requests != ok + errors + shed
	bad.Targets["a"] = st
	if err := bad.Validate(); err == nil {
		t.Fatal("inconsistent target entry validated")
	}

	// Older artifacts (no targets block) stay in the trajectory.
	for _, v := range []int{1, 2} {
		old := base()
		old.SchemaVersion = v
		old.Targets = nil
		if err := old.Validate(); err != nil {
			t.Fatalf("schema v%d artifact rejected: %v", v, err)
		}
	}
	future := base()
	future.SchemaVersion = load.SchemaVersion + 1
	if err := future.Validate(); err == nil {
		t.Fatal("unknown future schema version validated")
	}
}
