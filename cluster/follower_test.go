package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/batch"
	"repro/cluster"
	"repro/corpus"
	"repro/gen"
	"repro/server"
)

func addTrees(t *testing.T, c *corpus.Corpus, seed, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c.Add(gen.Random(int64(seed+i), gen.RandomSpec{Size: 12, MaxDepth: 5, MaxFanout: 3, Labels: 6}))
	}
}

// waitConverged polls until the follower holds want trees and reports
// zero lag against the primary's announced position.
func waitConverged(t *testing.T, fl *cluster.Follower, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := fl.Stats()
		if fl.Corpus().Len() == want && st.Lag == 0 && st.Gen != "" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower stuck at %d trees, want %d (stats %+v)", fl.Corpus().Len(), want, fl.Stats())
}

// sameTrees asserts two corpora hold the identical ID → tree mapping.
func sameTrees(t *testing.T, primary, replica *corpus.Corpus) {
	t.Helper()
	pi, ri := primary.IDs(), replica.IDs()
	if !reflect.DeepEqual(pi, ri) {
		t.Fatalf("ID sets diverged: primary %v, replica %v", pi, ri)
	}
	for _, id := range pi {
		pt, _ := primary.Tree(id)
		rt, ok := replica.Tree(id)
		if !ok || pt.String() != rt.String() {
			t.Fatalf("tree %d diverged: primary %q, replica %v", id, pt.String(), rt)
		}
	}
}

// startFollowerRun launches fl.Run and returns a cancel that waits for
// the run loop to exit — restarts must not overlap runs.
func startFollowerRun(fl *cluster.Follower) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fl.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// TestFollowerMidLogCatchUp: a fresh follower ships the primary's
// checkpoint (it keeps no durable position), then tails the live WAL
// stream; mutations made after it attached arrive over the wire, and a
// join on the replica answers exactly like the primary.
func TestFollowerMidLogCatchUp(t *testing.T) {
	dir := t.TempDir()
	pc, err := corpus.Open(filepath.Join(dir, "primary.tedc"), corpus.WithHistogramIndex())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	addTrees(t, pc, 100, 8)

	ts := httptest.NewServer(server.New(pc))
	defer ts.Close()

	fl, err := cluster.NewFollower(filepath.Join(dir, "replica.tedc"), ts.URL, corpus.WithHistogramIndex())
	if err != nil {
		t.Fatal(err)
	}
	// Before any contact the follower cannot prove it is fresh: its read
	// guard sees an unbounded staleness, and its stats report no age.
	if got := fl.Stats().StalenessMS; got != nil {
		t.Fatalf("never-fresh follower stats staleness %d ms, want none", *got)
	}
	if fl.Staleness() < time.Duration(1<<63-1) {
		t.Fatalf("never-fresh follower Staleness %v, want unbounded", fl.Staleness())
	}
	fl.PollWait = 200 * time.Millisecond
	stop := startFollowerRun(fl)
	defer stop()

	waitConverged(t, fl, 8)
	if st := fl.Stats(); st.Ships != 1 {
		t.Fatalf("fresh follower shipped %d checkpoints, want exactly 1 (stats %+v)", st.Ships, st)
	}

	// Mid-log: these mutations postdate the ship and must arrive as
	// replicated WAL records, not another ship.
	addTrees(t, pc, 200, 5)
	waitConverged(t, fl, 13)
	st := fl.Stats()
	if st.Ships != 1 {
		t.Fatalf("live tail resorted to a checkpoint ship (stats %+v)", st)
	}
	if st.Records < 5 {
		t.Fatalf("only %d records applied over the stream, want ≥ 5", st.Records)
	}
	sameTrees(t, pc, fl.Corpus())

	// The replica answers queries identically.
	rc := fl.Corpus()
	pe, re := pc.Engine(), rc.Engine()
	wantJ, _ := pc.Join(pe, 4, batch.JoinOptions{})
	gotJ, _ := rc.Join(re, 4, batch.JoinOptions{})
	if !reflect.DeepEqual(gotJ, wantJ) {
		t.Fatalf("replica join diverged:\ngot  %v\nwant %v", gotJ, wantJ)
	}
	if fl.Staleness() > time.Minute {
		t.Fatalf("converged follower reports staleness %v", fl.Staleness())
	}
	if ms := fl.Stats().StalenessMS; ms == nil {
		t.Fatal("converged follower stats report no staleness")
	} else if *ms > time.Minute.Milliseconds() {
		t.Fatalf("converged follower stats staleness %d ms", *ms)
	}
}

// TestFollowerCheckpointShipAfterTruncate: the primary checkpoints —
// folding WAL records the detached follower never saw into the snapshot
// and truncating the log — so the follower's position is gone. On
// reconnect it must get 409, ship the new checkpoint, and converge on
// the post-truncation mutations over the fresh generation's stream.
func TestFollowerCheckpointShipAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	pc, err := corpus.Open(filepath.Join(dir, "primary.tedc"))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	addTrees(t, pc, 100, 6)

	ts := httptest.NewServer(server.New(pc))
	defer ts.Close()

	fl, err := cluster.NewFollower(filepath.Join(dir, "replica.tedc"), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fl.PollWait = 200 * time.Millisecond
	stop := startFollowerRun(fl)
	waitConverged(t, fl, 6)
	stop() // detach at (gen0, 6)

	// Records the follower never saw, folded away by the checkpoint: its
	// position no longer maps onto any generation the primary retains.
	addTrees(t, pc, 200, 3)
	if err := pc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	addTrees(t, pc, 300, 2)

	stop = startFollowerRun(fl)
	defer stop()
	waitConverged(t, fl, 11)
	st := fl.Stats()
	if st.Ships != 2 {
		t.Fatalf("reattaching past a truncation shipped %d checkpoints, want 2 (stats %+v)", st.Ships, st)
	}
	sameTrees(t, pc, fl.Corpus())
}

// mangler corrupts the next /v1/wal response in a configured way, then
// passes everything through untouched — the wire-fault injector for the
// replication stream.
type mangler struct {
	inner http.Handler
	mode  atomic.Value // "", "flip" (corrupt a byte), "trunc" (torn tail)
	fired atomic.Int64
}

func (m *mangler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := m.mode.Load().(string)
	if mode == "" || r.URL.Path != "/v1/wal" {
		m.inner.ServeHTTP(w, r)
		return
	}
	m.mode.Store("")
	m.fired.Add(1)
	rec := httptest.NewRecorder()
	m.inner.ServeHTTP(rec, r)
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	body := rec.Body.Bytes()
	if len(body) == 0 {
		return
	}
	switch mode {
	case "flip":
		body[len(body)-1] ^= 0x40 // last byte is the final frame's checksum
		w.Write(body)
	case "trunc":
		w.Write(body[:len(body)-1]) // close mid-frame: a torn tail on the wire
	}
}

// TestFollowerStreamCorruption: a flipped byte and a torn tail on the
// WAL-over-HTTP stream must be detected by the frame checksum/framing,
// the partial frame discarded, and the follower reconnect and converge
// — corruption delays replication, it never poisons the replica.
func TestFollowerStreamCorruption(t *testing.T) {
	dir := t.TempDir()
	pc, err := corpus.Open(filepath.Join(dir, "primary.tedc"))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	addTrees(t, pc, 100, 5)

	mg := &mangler{inner: server.New(pc)}
	ts := httptest.NewServer(mg)
	defer ts.Close()

	fl, err := cluster.NewFollower(filepath.Join(dir, "replica.tedc"), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fl.PollWait = 200 * time.Millisecond
	stop := startFollowerRun(fl)
	waitConverged(t, fl, 5)
	stop()

	// Byte flip: detach, let the primary get ahead, corrupt the catch-up
	// response's final frame.
	addTrees(t, pc, 200, 4)
	mg.mode.Store("flip")
	stop = startFollowerRun(fl)
	waitConverged(t, fl, 9)
	stop()
	if mg.fired.Load() != 1 {
		t.Fatalf("flip fault fired %d times, want 1", mg.fired.Load())
	}

	// Torn tail: same shape, the response ends mid-frame instead.
	addTrees(t, pc, 300, 3)
	mg.mode.Store("trunc")
	stop = startFollowerRun(fl)
	defer stop()
	waitConverged(t, fl, 12)
	if mg.fired.Load() != 2 {
		t.Fatalf("trunc fault fired %d times in total, want 2", mg.fired.Load())
	}
	if st := fl.Stats(); st.Ships != 1 {
		t.Fatalf("wire corruption triggered %d checkpoint ships, want the initial 1 only (stats %+v)", st.Ships, st)
	}
	sameTrees(t, pc, fl.Corpus())
}
