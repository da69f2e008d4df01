package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	ted "repro"
	"repro/corpus"
	"repro/server"
)

// writeSnapshot stores trees (IDs 0..n-1 in order) as a corpus snapshot
// with the histogram index cmd/tedd maintains by default.
func writeSnapshot(path string, trees []*ted.Tree) error {
	c := corpus.New(corpus.WithHistogramIndex())
	for _, t := range trees {
		c.Add(t)
	}
	return c.SaveFile(path)
}

// stack is one serving process's worth of state, assembled as cmd/tedd
// assembles it: corpus.Open → server.New → Warm → http.Server on a
// loopback listener.
type stack struct {
	c      *corpus.Corpus
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

// setupTimes splits one set-up: open is corpus.Open (snapshot decode and
// log replay), warm is server.New plus Warm, total adds the listener and
// one /healthz round trip that proves it accepts.
type setupTimes struct {
	open, warm, total time.Duration
}

// openStack brings up the stack over the corpus at path. wrap, if not
// nil, wraps the server's handler (the tracer's span recorder).
func openStack(path string, wrap func(http.Handler) http.Handler) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	c, err := corpus.Open(path, corpus.WithHistogramIndex())
	if err != nil {
		return nil, t, err
	}
	t.open = time.Since(start)
	// The limits cmd/tedd sets by default.
	srv := server.New(c,
		server.WithQueueTimeout(2*time.Second),
		server.WithMaxNodes(4096),
		server.WithMaxBodyBytes(1<<20),
		server.WithMaxLabels(1<<20))
	srv.Warm()
	t.warm = time.Since(start) - t.open
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, t, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	s := &stack{
		c:   c,
		srv: srv,
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if err := s.ready(); err != nil {
		s.close()
		return nil, t, err
	}
	t.total = time.Since(start)
	return s, t, nil
}

func (s *stack) ready() error {
	cl := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := cl.Get(s.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// stopServing shuts the HTTP server down and waits for Serve to return;
// the corpus stays open.
func (s *stack) stopServing() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.hs = nil
	return err
}

// close stops serving and closes the corpus (syncing its log).
func (s *stack) close() error {
	err := s.stopServing()
	if cerr := s.c.Close(); err == nil {
		err = cerr
	}
	return err
}
