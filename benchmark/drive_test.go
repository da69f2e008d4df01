package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue stalls every handler for 200 ms once, during
// a 200 rps open loop. The requests due during the stall wait for a
// connection; timed from when they were due, they carry that wait into
// the tail and into benchmark.lateness_ms_p99. A driver that timed from
// send would see only the two requests in flight during the stall.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var (
		mu sync.Mutex
		n  atomic.Int64
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == 100 {
			time.Sleep(200 * time.Millisecond)
		}
		mu.Unlock()
		io.WriteString(w, "{}")
	}))
	defer srv.Close()

	// 200 rps for 2 s, evenly spaced so that 40 requests fall due
	// during the stall.
	var (
		due  []time.Duration
		reqs []request
	)
	for i := 0; i < 400; i++ {
		due = append(due, time.Duration(i)*5*time.Millisecond)
		reqs = append(reqs, request{ep: epDistance, body: []byte("{}")})
	}
	p := &plan{reqs: reqs, due: due, headline: func(int) bool { return true }}
	d := newDriver(srv.URL)
	defer d.close()
	ss, _ := d.open(reqs, due, time.Second)
	if n.Load() < 100 {
		t.Fatalf("the stub saw %d requests; the stall never happened", n.Load())
	}

	if p99 := quantile(latencies(ss, p.isHeadline), 0.99); p99 < 150*time.Millisecond {
		t.Errorf("p99 latency from due = %v, want ≥ 150ms: the stall's wait is missing", p99)
	}
	if late := latenessP99(p, ss); late < 150*time.Millisecond {
		t.Errorf("lateness p99 = %v, want ≥ 150ms", late)
	}
	fromSend := make([]time.Duration, len(ss))
	for i, s := range ss {
		fromSend[i] = s.done - s.sent
	}
	if p99 := quantile(sortedCopy(fromSend), 0.99); p99 >= 150*time.Millisecond {
		t.Errorf("p99 latency from send = %v; expected the send-timed view to miss the stall", p99)
	}
}
