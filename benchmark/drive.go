package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is how many connections the load generator holds: one per
// client goroutine, never more than the two cores the server shares.
const conns = 2

// sample is the client-side record of one request. Times are offsets
// from the window's start. due is when the request should have been
// sent: its scheduled arrival in an open loop, its send time in a closed
// loop. Latency runs from due, so a request that waited for a free
// connection carries that wait.
type sample struct {
	ep         endpoint
	idx        int // position in the run: the plan's request index (open loop) or pick order (closed loop)
	due        time.Duration
	sent, done time.Duration
	status     int    // 0: transport error, or never sent
	body       []byte // kept only for requests the checks look at
}

func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 }

func (s *sample) latency() time.Duration { return s.done - s.due }

func (s *sample) lateness() time.Duration { return s.sent - s.due }

// driver sends requests over conns keep-alive connections to one base
// URL.
type driver struct {
	base    string
	clients [conns]*http.Client
	// traced sets X-Request-ID on every request so the server-side
	// handler span can name its client-side parent.
	traced bool
	// keep reports whether a request's response body must be retained
	// for the checks after the window.
	keep func(idx int, ep endpoint) bool
}

func newDriver(base string) *driver {
	d := &driver{base: base, keep: func(int, endpoint) bool { return false }}
	for i := range d.clients {
		d.clients[i] = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

// open runs an open loop: request i is due at due[i], and each of the
// conns clients takes the next request in schedule order, sleeps until
// it is due, and sends it. When both connections are busy the next
// request waits, and its latency — timed from when it was due, not when
// it was sent — counts that wait. Requests still unsent grace after the
// schedule's end are abandoned and recorded as failures.
func (d *driver) open(reqs []request, due []time.Duration, grace time.Duration) ([]sample, time.Time) {
	out := make([]sample, len(reqs))
	cutoff := grace
	if len(due) > 0 {
		cutoff += due[len(due)-1]
	}
	var next atomic.Int64
	start := time.Now()
	d.each(func(c int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(reqs) {
				return
			}
			if wait := due[i] - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			if time.Since(start) > cutoff {
				now := time.Since(start)
				out[i] = sample{ep: reqs[i].ep, idx: i, due: due[i], sent: now, done: now}
				continue
			}
			out[i] = d.do(c, i, reqs[i], start, due[i])
		}
	})
	return out, start
}

// closed runs a closed loop for dur: each client sends the next request
// of the cyclic list as soon as its previous one completes. The samples
// are in pick order, so sample i carries reqs[i%len(reqs)].
func (d *driver) closed(reqs []request, dur time.Duration) ([]sample, time.Time) {
	var (
		mu   sync.Mutex
		out  []sample
		next atomic.Int64
	)
	start := time.Now()
	d.each(func(c int) {
		var mine []sample
		for time.Since(start) < dur {
			i := int(next.Add(1)) - 1
			r := reqs[i%len(reqs)]
			mine = append(mine, d.do(c, i, r, start, time.Since(start)))
		}
		mu.Lock()
		out = append(out, mine...)
		mu.Unlock()
	})
	ordered := make([]sample, len(out))
	for _, s := range out {
		ordered[s.idx] = s
	}
	return ordered, start
}

func (d *driver) each(f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// do sends one request on client c and reads the whole response.
func (d *driver) do(c, i int, r request, start time.Time, due time.Duration) sample {
	s := sample{ep: r.ep, idx: i, due: due}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, d.base+endpoints[r.ep].path, bytes.NewReader(r.body))
	if err != nil {
		s.sent = time.Since(start)
		s.done = s.sent
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if d.traced {
		req.Header.Set("X-Request-ID", strconv.Itoa(i+1))
	}
	s.sent = time.Since(start)
	resp, err := d.clients[c].Do(req)
	if err != nil {
		s.done = time.Since(start)
		return s
	}
	if d.keep(i, r.ep) {
		s.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	s.done = time.Since(start)
	if err == nil {
		s.status = resp.StatusCode
	}
	return s
}
