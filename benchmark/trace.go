package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root).
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Req    string           `json:"request_id"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Self   time.Duration    `json:"self_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Its methods are safe
// on a nil *tracer, which records nothing: the untraced run passes nil.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// Span IDs below replayIDBase are the window's client spans: request i
// of the traced window is span i+1, the value it sends as X-Request-ID.
const replayIDBase = 1 << 40

// begin opens a span; end closes it and stores it. parent may be nil.
func (t *tracer) begin(name, req string, parent *span) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := replayIDBase + t.next
	t.mu.Unlock()
	s := &span{ID: id, Name: name, Req: req, Start: time.Since(t.epoch)}
	if parent != nil {
		s.Parent = parent.ID
	}
	return s
}

func (t *tracer) end(s *span, attrs map[string]int64) {
	if t == nil {
		return
	}
	s.End = time.Since(t.epoch)
	s.Attrs = attrs
	t.add(s)
}

func (t *tracer) add(s *span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a window-relative offset to tracer time.
func (t *tracer) at(windowStart time.Time, off time.Duration) time.Duration {
	return windowStart.Sub(t.epoch) + off
}

// wrap records a server.handler span around every request that carries
// X-Request-ID, as a child of the client.request span of that ID.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		parent, err := strconv.ParseInt(rid, 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := &span{Name: "server.handler", Req: rid, Parent: parent, Start: time.Since(t.epoch)}
		h.ServeHTTP(w, r)
		s.End = time.Since(t.epoch)
		t.add(s)
	})
}

// byName returns the durations of the spans called name.
func (t *tracer) byName(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// handlerSpans returns the server.handler spans keyed by parent ID.
func (t *tracer) handlerSpans() map[int64]*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[int64]*span)
	for _, s := range t.spans {
		if s.Name == "server.handler" {
			m[s.Parent] = s
		}
	}
	return m
}

// selfTimes sets every span's Self: its duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]*span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		curFrom, curTo := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			from, to := max(k.Start, s.Start), min(k.End, s.End)
			if from >= to {
				continue
			}
			if from > curTo {
				covered += curTo - curFrom
				curFrom, curTo = from, to
				continue
			}
			curTo = max(curTo, to)
		}
		covered += curTo - curFrom
		s.Self = s.dur() - covered
	}
}
