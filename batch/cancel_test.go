package batch_test

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	ted "repro"
	"repro/batch"
	"repro/gen"
)

// stopBudget is how soon after its context is cancelled a call must
// return. The strategy DP is not polled: on the 2,000-node pairs below
// it runs about 0.1 s, and the cancels land after it. The race runtime
// slows the kernel between two polls about tenfold.
func stopBudget() time.Duration {
	if raceEnabled {
		return 10 * time.Second
	}
	return 500 * time.Millisecond
}

// stopLatency starts call, cancels its context after delay and returns
// call's error and the time from the cancel to its return. It fails the
// test once the budget has passed without a return.
func stopLatency(t *testing.T, delay time.Duration, call func(context.Context) error) (error, time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- call(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("the call returned %v before its cancel; the pair is too small to test it", err)
	case <-time.After(delay):
	}
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		return err, time.Since(start)
	case <-time.After(stopBudget()):
		t.Fatalf("the call still runs %v after its cancel", stopBudget())
	}
	return nil, 0
}

// bigPair is the 2,001-node zigzag and 2,047-node full binary tree: an
// exact pair that runs for tens of seconds, under the server's node cap.
func bigPair(e *batch.Engine) (zz, fb *batch.PreparedTree) {
	return e.Prepare(gen.ZigZag(2001)), e.Prepare(gen.FullBinary(2047))
}

// TestDistanceContextStopsInsidePair: a cancelled exact distance on a
// pair that runs for tens of seconds returns ctx's error within the
// budget of the cancel.
func TestDistanceContextStopsInsidePair(t *testing.T) {
	e := batch.New(batch.WithWorkers(1))
	zz, fb := bigPair(e)
	err, took := stopLatency(t, time.Second, func(ctx context.Context) error {
		_, err := e.DistanceContext(ctx, zz, fb)
		return err
	})
	if err != context.Canceled || took > stopBudget() {
		t.Fatalf("cancelled distance returned %v %v after the cancel; want context.Canceled within %v", err, took, stopBudget())
	}
	t.Logf("returned %v after the cancel", took)
}

// TestTopKAcrossStopsInsidePair: a top-k scan whose one data tree runs
// for tens of seconds against the query returns ctx's error and no
// matches within the budget of the cancel.
func TestTopKAcrossStopsInsidePair(t *testing.T) {
	e := batch.New(batch.WithWorkers(1))
	zz, fb := bigPair(e)
	var ms []batch.CrossMatch
	err, took := stopLatency(t, time.Second, func(ctx context.Context) error {
		var err error
		ms, _, err = e.TopKAcross(ctx, zz, []*batch.PreparedTree{fb}, 3)
		return err
	})
	if err != context.Canceled || took > stopBudget() || ms != nil {
		t.Fatalf("cancelled scan returned %d matches and %v %v after the cancel; want none and context.Canceled within %v",
			len(ms), err, took, stopBudget())
	}
	t.Logf("returned %v after the cancel", took)
}

// TestJoinStopsInsidePair: a join cancelled at its first match, while
// another worker runs a pair that takes seconds, returns within the
// budget, never emits the stopped pair, and every match it emitted is
// exact.
func TestJoinStopsInsidePair(t *testing.T) {
	trees := append([]*ted.Tree{gen.ZigZag(1001), gen.FullBinary(1023)}, randomTrees(9, 6, 30)...)
	e := batch.New(batch.WithWorkers(2))
	ps := e.PrepareAll(trees)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		ms        []batch.Match
		cancelled time.Time
	)
	_, err := e.JoinStream(ctx, ps, math.Inf(1), false, func(m batch.Match) {
		ms = append(ms, m)
		if cancelled.IsZero() {
			cancelled = time.Now()
			cancel()
		}
	})
	took := time.Since(cancelled)
	if err != context.Canceled || len(ms) == 0 || took > stopBudget() {
		t.Fatalf("cancelled join emitted %d matches and returned %v %v after the cancel; want context.Canceled within %v",
			len(ms), err, took, stopBudget())
	}
	t.Logf("returned %v after the cancel, %d matches emitted", took, len(ms))
	for _, m := range ms {
		if m.I == 0 && m.J == 1 {
			t.Fatalf("the join emitted the pair it stopped: %+v", m)
		}
		if want := ted.Distance(trees[m.I], trees[m.J]); m.Dist != want {
			t.Fatalf("match %+v: ted.Distance is %v", m, want)
		}
	}
}

// TestStoppedPairLeavesWorkspaceClean: on one P with the collector off,
// the pooled workspace that held a stopped pair serves the next calls,
// and their exact and bounded distances are ted's, round after round.
func TestStoppedPairLeavesWorkspaceClean(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := batch.New(batch.WithWorkers(1))
	// Small enough for the pool to keep the workspace's arena and
	// strategy scratch (maxPooledArenaCells), large enough to take
	// hundreds of milliseconds.
	zz, fb := e.Prepare(gen.ZigZag(400)), e.Prepare(gen.FullBinary(511))
	trees := append(randomTrees(31, 12, 30), gen.ZigZag(30), gen.FullBinary(31), gen.Mixed(29), gen.LeftBranch(25))
	ps := e.PrepareAll(trees)
	for round := range 6 {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(1+3*round)*time.Millisecond, cancel)
		if _, err := e.DistanceContext(ctx, zz, fb); err != context.Canceled {
			t.Fatalf("round %d: the cancelled pair returned %v", round, err)
		}
		timer.Stop()
		cancel()
		pairs := 0
		for i := 0; i < len(ps) && pairs < 40; i++ {
			for j := i + 1; j < len(ps) && pairs < 40; j += 3 {
				pairs++
				want := ted.Distance(trees[i], trees[j])
				if d, err := e.DistanceContext(context.Background(), ps[i], ps[j]); d != want || err != nil {
					t.Fatalf("round %d pair (%d,%d): distance %v, %v; ted.Distance %v", round, i, j, d, err, want)
				}
				tau := want - 1
				if i%2 == 0 {
					tau = want + 1
				}
				wd, wok := ted.DistanceBounded(trees[i], trees[j], tau)
				if d, ok, err := e.DistanceBoundedContext(context.Background(), ps[i], ps[j], tau); d != wd || ok != wok || err != nil {
					t.Fatalf("round %d pair (%d,%d) tau %v: bounded (%v, %v, %v); ted.DistanceBounded (%v, %v)",
						round, i, j, tau, d, ok, err, wd, wok)
				}
			}
		}
	}
}
