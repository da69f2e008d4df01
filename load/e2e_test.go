package load_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/gen"
	"repro/load"
	"repro/server"
)

func e2eCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c := corpus.New(corpus.WithHistogramIndex())
	for i := 0; i < 8; i++ {
		base := gen.Random(int64(100+i), gen.RandomSpec{Size: 20 + i, MaxDepth: 8, MaxFanout: 4, Labels: 10})
		c.Add(base)
		c.Add(gen.RenameSome(base, 1+i%3, int64(i)))
	}
	return c
}

// crossCheck builds the Runner.Check hook that verifies every served
// answer against the in-process engine: the same decoding the handlers
// perform, the same engine calls, exact comparison.
func crossCheck(c *corpus.Corpus, e *batch.Engine) func(req load.Request, status int, body []byte) error {
	resolve := func(ref server.TreeRef) (*batch.PreparedTree, error) {
		if ref.ID != nil {
			p, ok := c.Prepared(e, corpus.ID(*ref.ID))
			if !ok {
				return nil, fmt.Errorf("no stored tree %d", *ref.ID)
			}
			return p, nil
		}
		tr, err := ted.Parse(ref.Tree)
		if err != nil {
			return nil, err
		}
		return c.PrepareQuery(e, tr), nil
	}
	return func(req load.Request, status int, body []byte) error {
		switch req.Endpoint {
		case load.EpDistance:
			var q server.DistanceRequest
			var r server.DistanceResponse
			if err := decode2(req.Body, &q, body, &r); err != nil {
				return err
			}
			f, err := resolve(q.F)
			if err != nil {
				return err
			}
			g, err := resolve(q.G)
			if err != nil {
				return err
			}
			if want := e.Distance(f, g); r.Dist != want {
				return fmt.Errorf("distance = %g served, %g in process", r.Dist, want)
			}
		case load.EpBounded:
			var q server.DistanceBoundedRequest
			var r server.DistanceBoundedResponse
			if err := decode2(req.Body, &q, body, &r); err != nil {
				return err
			}
			f, err := resolve(q.F)
			if err != nil {
				return err
			}
			g, err := resolve(q.G)
			if err != nil {
				return err
			}
			d, within := e.DistanceBounded(f, g, q.Tau)
			if r.Within != within || r.Dist != d {
				return fmt.Errorf("bounded = (%g, %v) served, (%g, %v) in process", r.Dist, r.Within, d, within)
			}
		case load.EpTopK:
			var q server.TopKRequest
			var r server.TopKResponse
			if err := decode2(req.Body, &q, body, &r); err != nil {
				return err
			}
			p, err := resolve(q.Query)
			if err != nil {
				return err
			}
			want, _ := c.TopKAcross(e, p, q.K)
			if len(r.Matches) != len(want) {
				return fmt.Errorf("topk returned %d matches, want %d", len(r.Matches), len(want))
			}
			for i, m := range want {
				got := r.Matches[i]
				if got.Tree != int64(m.Tree) || got.Root != m.Root || got.Dist != m.Dist {
					return fmt.Errorf("topk match %d = %+v served, %+v in process", i, got, m)
				}
			}
		case load.EpJoin:
			var q server.JoinRequest
			var r server.JoinResponse
			if err := decode2(req.Body, &q, body, &r); err != nil {
				return err
			}
			want, _ := c.Join(e, q.Tau, batch.JoinOptions{Mode: batch.IndexHistogram})
			if r.Count != len(want) {
				return fmt.Errorf("join count = %d served, %d in process", r.Count, len(want))
			}
			if r.Truncated != (len(want) > q.Limit) {
				return fmt.Errorf("join truncated = %v with %d matches at limit %d", r.Truncated, len(want), q.Limit)
			}
			for i, got := range r.Matches {
				m := want[i]
				if got.I != int64(m.I) || got.J != int64(m.J) || got.Dist != m.Dist {
					return fmt.Errorf("join match %d = %+v served, %+v in process", i, got, m)
				}
			}
		case load.EpJoinStream:
			var q server.JoinRequest
			if err := json.Unmarshal(req.Body, &q); err != nil {
				return fmt.Errorf("decode request: %w", err)
			}
			got, done, err := scanStream[server.JoinMatch, server.JoinStreamDone](body)
			if err != nil {
				return err
			}
			want, _ := c.Join(e, q.Tau, batch.JoinOptions{Mode: batch.IndexHistogram})
			if done.Count != len(want) {
				return fmt.Errorf("streamed join count = %d served, %d in process", done.Count, len(want))
			}
			if done.Truncated != (len(want) > q.Limit) {
				return fmt.Errorf("streamed join truncated = %v with %d matches at limit %d", done.Truncated, len(want), q.Limit)
			}
			// Streamed matches arrive in completion order and the limit cuts
			// that order, so compare by membership: every emitted pair must be
			// a real match, and the emitted count must be exactly the limit's
			// worth. With unique pairs that is multiset equality when nothing
			// was truncated.
			if len(got) != min(q.Limit, len(want)) {
				return fmt.Errorf("streamed join emitted %d matches, want %d", len(got), min(q.Limit, len(want)))
			}
			wantBy := make(map[[2]int64]float64, len(want))
			for _, m := range want {
				wantBy[[2]int64{int64(m.I), int64(m.J)}] = m.Dist
			}
			for _, g := range got {
				d, ok := wantBy[[2]int64{g.I, g.J}]
				if !ok || d != g.Dist {
					return fmt.Errorf("streamed join emitted (%d,%d,%g); in process has (dist %g, present %v)", g.I, g.J, g.Dist, d, ok)
				}
			}
		case load.EpTopKStream:
			var q server.TopKRequest
			if err := json.Unmarshal(req.Body, &q); err != nil {
				return fmt.Errorf("decode request: %w", err)
			}
			got, _, err := scanStream[server.TopKMatch, server.TopKStreamDone](body)
			if err != nil {
				return err
			}
			p, err := resolve(q.Query)
			if err != nil {
				return err
			}
			want, _ := c.TopKAcross(e, p, q.K)
			if len(got) != len(want) {
				return fmt.Errorf("streamed topk emitted %d matches, want %d", len(got), len(want))
			}
			for i, m := range want {
				if got[i].Tree != int64(m.Tree) || got[i].Root != m.Root || got[i].Dist != m.Dist {
					return fmt.Errorf("streamed topk match %d = %+v served, %+v in process", i, got[i], m)
				}
			}
		case load.EpMutate:
			var q server.TreeRequest
			var r server.TreeResponse
			if err := decode2(req.Body, &q, body, &r); err != nil {
				return err
			}
			stored, ok := c.Tree(corpus.ID(r.ID))
			if !ok {
				return fmt.Errorf("mutate acknowledged id %d but the corpus has no such tree", r.ID)
			}
			if stored.String() != q.Tree {
				return fmt.Errorf("mutate stored %q, posted %q", stored.String(), q.Tree)
			}
		default:
			return fmt.Errorf("unknown endpoint %q", req.Endpoint)
		}
		return nil
	}
}

// scanStream decodes a captured NDJSON response body into its match
// lines and its terminal done record, which must be present — the
// cross-check re-applies the client's cut-short rule to the raw bytes.
func scanStream[M, D any](body []byte) ([]M, *D, error) {
	var (
		ms   []M
		done *D
	)
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Match *M `json:"match"`
			Done  *D `json:"done"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("decode stream line %q: %w", line, err)
		}
		if rec.Match != nil {
			ms = append(ms, *rec.Match)
		}
		if rec.Done != nil {
			done = rec.Done
		}
	}
	if done == nil {
		return nil, nil, fmt.Errorf("stream has no done record")
	}
	return ms, done, nil
}

func decode2(reqBody []byte, reqInto any, respBody []byte, respInto any) error {
	if err := json.Unmarshal(reqBody, reqInto); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if err := json.Unmarshal(respBody, respInto); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// TestE2EClosedLoopCrossChecked: the full tedload lifecycle against an
// httptest-served server.Handler over a static corpus — a mixed
// read-only workload with every single response cross-checked against
// the in-process engine.
func TestE2EClosedLoopCrossChecked(t *testing.T) {
	c := e2eCorpus(t)
	srv := server.New(c, server.WithMaxInFlight(16))
	srv.Warm()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The HTTP snapshot path agrees with the in-process one.
	snap := load.SnapshotOf(c)
	fetched, err := load.FetchSnapshot(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, fetched) {
		t.Fatalf("FetchSnapshot = %+v, SnapshotOf = %+v", fetched, snap)
	}

	spec := load.Spec{
		Mix: map[string]float64{
			load.EpDistance: 3, load.EpBounded: 3, load.EpTopK: 2, load.EpJoin: 0.3,
			load.EpJoinStream: 0.3, load.EpTopKStream: 2,
		},
		Tau: 4, K: 3, JoinMode: "histogram", JoinLimit: 16,
		Seed: 11, Conc: 4, Requests: 128,
	}
	r := &load.Runner{
		Targets: []string{ts.URL}, Client: ts.Client(), Spec: spec, Snap: snap,
		Check: crossCheck(c, srv.Engine()),
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Errors != 0 {
		t.Fatalf("run counted %d errors (first: %s)", res.Total.Errors, res.Total.FirstError)
	}
	if res.Total.OK != int64(spec.Requests) || res.Total.Shed != 0 {
		t.Fatalf("uncontended run: ok %d, shed %d, want %d, 0", res.Total.OK, res.Total.Shed, spec.Requests)
	}
	for _, ep := range []string{load.EpDistance, load.EpBounded, load.EpTopK, load.EpTopKStream} {
		if st, ok := res.Endpoints[ep]; !ok || st.OK == 0 {
			t.Fatalf("endpoint %s missing from the result: %+v", ep, res.Endpoints)
		}
	}
}

// TestE2EOverloadShedding: 16 closed-loop workers against a server whose
// admission gate is deliberately tiny and slow (one slot, an admit-hook
// delay, no queueing): 503s must be counted as shed — not dropped, not
// errors — and must reconcile exactly with the server's own shed
// counter, while mutations that do land remain fully cross-checked.
func TestE2EOverloadShedding(t *testing.T) {
	c := e2eCorpus(t)
	srv := server.New(c,
		server.WithMaxInFlight(1),
		server.WithQueueTimeout(0),
		server.WithAdmitHook(func() { time.Sleep(3 * time.Millisecond) }),
	)
	srv.Warm()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := load.Spec{
		Mix: map[string]float64{load.EpDistance: 2, load.EpMutate: 1},
		Tau: 4, K: 1,
		Seed: 23, Conc: 16, Requests: 150,
	}
	r := &load.Runner{
		Targets: []string{ts.URL}, Client: ts.Client(), Spec: spec, Snap: load.SnapshotOf(c),
		Check: crossCheck(c, srv.Engine()),
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Errors != 0 {
		t.Fatalf("sheds must not count as errors (errors %d, first: %s)", res.Total.Errors, res.Total.FirstError)
	}
	if res.Total.Requests() != int64(spec.Requests) {
		t.Fatalf("counted %d requests, want %d — shed requests were dropped", res.Total.Requests(), spec.Requests)
	}
	if res.Total.Shed == 0 {
		t.Fatal("overloaded run shed nothing; 16 workers never contended for the one slot")
	}
	if got := srv.Stats().Shed; got != res.Total.Shed {
		t.Fatalf("client observed %d sheds, server counted %d", res.Total.Shed, got)
	}
}
