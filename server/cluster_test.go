package server_test

import (
	"net"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/batch"
	"repro/cluster"
	"repro/corpus"
	"repro/gen"
	"repro/server"
)

// TestClusterGateway drives a gateway — a server over an empty local
// corpus, coordinating two loopback workers that hold a snapshot — and
// requires every join and top-k route, buffered and streamed, to answer
// with single-node corpus.Join / corpus.TopKAcross over that snapshot:
// the routes must reach the fleet, not the empty local corpus. With the
// workers gone, the buffered routes answer 502 and the streams end
// without a done record.
func TestClusterGateway(t *testing.T) {
	snap := corpus.New(corpus.WithHistogramIndex())
	for i := 0; i < 12; i++ {
		base := gen.Random(int64(40+i), gen.RandomSpec{Size: 12 + i%4, MaxDepth: 5, MaxFanout: 4, Labels: 8})
		snap.Add(base)
		snap.Add(gen.RenameSome(base, 1+i%2, int64(i)))
	}
	path := filepath.Join(t.TempDir(), "snap.tedc")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var workers []*cluster.Worker
	for i := 0; i < 2; i++ {
		c, err := corpus.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w := cluster.NewWorker(c, batch.WithWorkers(2))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(ln)
		t.Cleanup(func() { w.Close() })
		addrs = append(addrs, ln.Addr().String())
		workers = append(workers, w)
	}
	ts := httptest.NewServer(server.New(corpus.New(), server.WithClusterWorkers(addrs)))
	t.Cleanup(ts.Close)

	const tau = 3
	query := gen.Random(7, gen.RandomSpec{Size: 10, MaxDepth: 4, MaxFanout: 3, Labels: 8})
	e := snap.Engine()
	wantJoin, _ := snap.Join(e, tau, batch.JoinOptions{})
	wantTopK, _ := snap.TopKAcross(e, snap.PrepareQuery(e, query), 3)
	if len(wantJoin) == 0 {
		t.Fatal("scenario broken: the snapshot has no matches at tau")
	}
	var joinWant []server.JoinMatch
	for _, m := range wantJoin {
		joinWant = append(joinWant, server.JoinMatch{I: int64(m.I), J: int64(m.J), Dist: m.Dist})
	}
	var topKWant []server.TopKMatch
	for _, m := range wantTopK {
		topKWant = append(topKWant, server.TopKMatch{Tree: int64(m.Tree), Root: m.Root, Dist: m.Dist})
	}
	joinReq := server.JoinRequest{Tau: tau}
	topKReq := server.TopKRequest{Query: ref(query.String()), K: 3}

	var join server.JoinResponse
	if code := call(t, "POST", ts.URL+"/v1/join", joinReq, &join); code != 200 {
		t.Fatalf("/v1/join: status %d", code)
	}
	if join.Count != len(joinWant) || !reflect.DeepEqual(join.Matches, joinWant) {
		t.Fatalf("/v1/join: count %d %v, single-node %d %v", join.Count, join.Matches, len(joinWant), joinWant)
	}

	recs := postNDJSON[server.JoinStreamRecord](t, ts.URL+"/v1/join/stream", joinReq)
	if len(recs) == 0 || recs[len(recs)-1].Done == nil {
		t.Fatalf("/v1/join/stream: no done record (%d lines)", len(recs))
	}
	var streamed []server.JoinMatch
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
	if code := call(t, "POST", ts.URL+"/v1/topk", topKReq, &topK); code != 200 {
		t.Fatalf("/v1/topk: status %d", code)
	}
	if !reflect.DeepEqual(topK.Matches, topKWant) {
		t.Fatalf("/v1/topk: %v, single-node %v", topK.Matches, topKWant)
	}

	krecs := postNDJSON[server.TopKStreamRecord](t, ts.URL+"/v1/topk/stream", topKReq)
	if len(krecs) == 0 || krecs[len(krecs)-1].Done == nil {
		t.Fatalf("/v1/topk/stream: no done record (%d lines)", len(krecs))
	}
	var kstreamed []server.TopKMatch
	for _, r := range krecs[:len(krecs)-1] {
		kstreamed = append(kstreamed, *r.Match)
	}
	if !reflect.DeepEqual(kstreamed, topKWant) {
		t.Fatalf("/v1/topk/stream: %v, single-node %v", kstreamed, topKWant)
	}

	for _, w := range workers {
		w.Close()
	}
	for path, req := range map[string]any{"/v1/join": joinReq, "/v1/topk": topKReq} {
		if code := call(t, "POST", ts.URL+path, req, nil); code != 502 {
			t.Fatalf("%s with every worker gone: status %d, want 502", path, code)
		}
	}
	if recs := postNDJSON[server.JoinStreamRecord](t, ts.URL+"/v1/join/stream", joinReq); len(recs) != 0 && recs[len(recs)-1].Done != nil {
		t.Fatal("/v1/join/stream with every worker gone ended with a done record")
	}
	if recs := postNDJSON[server.TopKStreamRecord](t, ts.URL+"/v1/topk/stream", topKReq); len(recs) != 0 && recs[len(recs)-1].Done != nil {
		t.Fatal("/v1/topk/stream with every worker gone ended with a done record")
	}
}
