// Command tedd serves a corpus over HTTP: the tree-edit-distance
// daemon. It loads (or creates) a persistent corpus, attaches a warmed
// batch engine, and exposes the package server JSON API — distances,
// bounded distances, similarity joins, top-k subtree search, and
// durable corpus mutations.
//
// Usage:
//
//	tedd -corpus trees.tedc                     # serve on :8420
//	tedd -corpus trees.tedc -addr 127.0.0.1:9000 -workers 8
//	tedd -corpus trees.tedc -index pqgram -max-inflight 64
//	tedd -corpus trees.tedc -cluster-workers http://h1:8420,http://h2:8420
//
// Every tedd can be a cluster worker. A gateway (-cluster-workers) deals
// each join and top-k query in position ranges to the tedd workers at the
// given base URLs, which must hold the same corpus (each its own copy of
// one snapshot), and merges their answers; it skips a worker that is
// down or draining and refuses (502) workers whose corpora differ or
// change while they serve the request. A follower (-follow)
// tails a primary's write-ahead log and serves reads as a replica.
//
// The corpus is opened with corpus.Open: mutations served over HTTP are
// appended to the write-ahead log at <corpus>.wal before they are
// acknowledged, so a crash — kill -9 included — loses nothing that was
// acknowledged; the next start replays the log. On SIGINT/SIGTERM the
// server drains (new requests get 503, in-flight requests finish), the
// log is folded into a fresh snapshot (Checkpoint), and the process
// exits cleanly.
//
// Endpoints and wire formats are documented in package server; a smoke
// check from the shell:
//
//	curl -s localhost:8420/healthz
//	curl -s -X POST localhost:8420/v1/distance \
//	    -d '{"f":{"tree":"{a{b}{c}}"},"g":{"tree":"{a{b{d}}}"}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/cluster"
	"repro/corpus"
	"repro/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "tedd: %v\n", err)
		os.Exit(1)
	}
}

// run is main with its environment made explicit: ctx cancellation is
// the shutdown signal, logw receives progress lines, and ready (if
// non-nil) is sent the bound address once the listener is accepting —
// the hook the tests and the smoke script's readiness poll rely on.
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("tedd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		corpusPath   = fs.String("corpus", "", "corpus file to serve (created via corpus.Open if missing; required)")
		addr         = fs.String("addr", ":8420", "listen address")
		workers      = fs.Int("workers", 0, "engine worker goroutines (0 = all CPU cores)")
		indexKind    = fs.String("index", "histogram", "maintained index for a fresh corpus: histogram | pqgram | both | none")
		q            = fs.Int("q", 2, "pq-gram base length when -index includes pqgram")
		maxInFlight  = fs.Int("max-inflight", 0, "admission: max concurrent requests (0 = 2x workers)")
		heavySlots   = fs.Int("heavy-slots", 0, "admission: max slots joins/top-k may hold at once (0 = half of max-inflight)")
		tenantQuota  = fs.Int("tenant-quota", 0, "admission: max slots one X-Tenant may hold at once (0 = no per-tenant cap)")
		queueWait    = fs.Duration("queue-timeout", 2*time.Second, "admission: how long an arrival may wait for a slot")
		maxNodes     = fs.Int("max-nodes", 4096, "largest accepted request tree, in nodes (DP memory is O(n^2): ~49*n^2 bytes per exact pair)")
		maxLabels    = fs.Int("max-labels", 1<<20, "distinct-label cap; at capacity, ad-hoc trees are refused with 503")
		maxBody      = fs.Int64("max-body", 1<<20, "largest accepted request body, in bytes")
		readTimeout  = fs.Duration("read-timeout", time.Minute, "HTTP read deadline per request (headers + body)")
		noWarm       = fs.Bool("no-warm", false, "skip preparing stored trees at startup")
		noCheckpoint = fs.Bool("no-checkpoint", false, "skip folding the WAL into a snapshot on shutdown")
		ckptEvery    = fs.Duration("checkpoint-interval", 5*time.Minute, "fold the WAL into the snapshot whenever it has grown after this interval (0 = shutdown only)")
		drainWait    = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget for in-flight requests")
		follow       = fs.String("follow", "", "follower mode: tail this primary's WAL (http://host:port) and serve reads from the replicated corpus; mutations get 403")
		maxStale     = fs.Duration("max-staleness", 0, "follower mode: refuse reads with 503 when last provably caught up longer ago than this (0 = serve regardless)")
		clusterList  = fs.String("cluster-workers", "", "gateway mode: comma-separated base URLs (http://host:port) of tedd workers that hold the same corpus; joins and top-k fan out to them instead of evaluating locally")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpusPath == "" {
		return errors.New("-corpus is required")
	}

	var workerURLs []string
	for _, a := range strings.Split(*clusterList, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if u, err := url.Parse(a); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("-cluster-workers: %q is not a worker base URL (http://host:port)", a)
		}
		workerURLs = append(workerURLs, strings.TrimRight(a, "/"))
	}
	if *clusterList != "" && len(workerURLs) == 0 {
		return errors.New("-cluster-workers needs at least one worker URL")
	}

	var copts []corpus.Option
	switch *indexKind {
	case "histogram":
		copts = append(copts, corpus.WithHistogramIndex())
	case "pqgram", "both":
		if *q < 1 {
			return fmt.Errorf("-q must be ≥ 1 (got %d)", *q)
		}
		if *indexKind == "both" {
			copts = append(copts, corpus.WithHistogramIndex())
		}
		copts = append(copts, corpus.WithPQGramIndex(*q))
	case "none":
	default:
		return fmt.Errorf("unknown -index %q (histogram | pqgram | both | none)", *indexKind)
	}

	start := time.Now()
	var (
		c   *corpus.Corpus
		fl  *cluster.Follower
		err error
	)
	if *follow != "" {
		// Follower mode: the corpus converges to the primary's over its
		// replicated WAL (see cluster.Follower); cur() must be re-read per
		// use because a checkpoint ship replaces the store wholesale.
		fl, err = cluster.NewFollower(*corpusPath, strings.TrimRight(*follow, "/"), copts...)
		if err != nil {
			return err
		}
		c = fl.Corpus()
	} else {
		c, err = corpus.Open(*corpusPath, copts...)
		if err != nil {
			return err
		}
	}
	cur := func() *corpus.Corpus {
		if fl != nil {
			return fl.Corpus()
		}
		return c
	}
	defer func() { cur().Close() }()
	fmt.Fprintf(logw, "tedd: corpus %s: %d trees (opened in %v)\n", *corpusPath, c.Len(), time.Since(start).Round(time.Millisecond))

	sopts := []server.Option{
		server.WithQueueTimeout(*queueWait),
		server.WithMaxNodes(*maxNodes),
		server.WithMaxBodyBytes(*maxBody),
		server.WithMaxLabels(*maxLabels),
	}
	if *workers > 0 {
		sopts = append(sopts, server.WithWorkers(*workers))
	}
	if *maxInFlight > 0 {
		sopts = append(sopts, server.WithMaxInFlight(*maxInFlight))
	}
	if *heavySlots > 0 {
		sopts = append(sopts, server.WithHeavySlots(*heavySlots))
	}
	if *tenantQuota > 0 {
		sopts = append(sopts, server.WithTenantQuota(*tenantQuota))
	}
	if len(workerURLs) > 0 {
		sopts = append(sopts, server.WithClusterWorkers(workerURLs))
		fmt.Fprintf(logw, "tedd: joins/top-k fan out to %d workers: %s\n", len(workerURLs), strings.Join(workerURLs, ", "))
	}
	if fl != nil {
		sopts = append(sopts, server.WithReplica(fl.Stats, fl.Staleness, *maxStale))
	}
	mkServer := func(c *corpus.Corpus) *server.Server {
		s := server.New(c, sopts...)
		if !*noWarm {
			start := time.Now()
			s.Warm()
			fmt.Fprintf(logw, "tedd: warmed %d trees in %v\n", c.Len(), time.Since(start).Round(time.Millisecond))
		}
		return s
	}
	// The live server sits behind an atomic pointer so a follower's
	// checkpoint ship — which replaces the corpus — swaps in a fresh
	// warmed server without dropping a request. The new server warms on
	// its engine's workers, at most -workers goroutines, while the old
	// one still serves.
	var srvPtr atomic.Pointer[server.Server]
	srvPtr.Store(mkServer(c))
	srv := srvPtr.Load
	if fl != nil {
		fl.OnSwap = func(_, nw *corpus.Corpus) {
			srvPtr.Store(mkServer(nw))
			fmt.Fprintf(logw, "tedd: checkpoint shipped from %s: %d trees\n", *follow, nw.Len())
		}
		go func() {
			if err := fl.Run(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(logw, "tedd: follower stopped: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Read deadlines matter to admission: the gate slot is held while the
	// body is decoded, so without them N slow-body clients could pin all
	// MaxInFlight slots forever and 503 the service until restart.
	hs := &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { srv().ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(logw, "tedd: serving on %s (%d workers, %d in-flight, %d heavy, tenant quota %d)\n",
		ln.Addr(), srv().Engine().Workers(), srv().MaxInFlight(), srv().HeavySlots(), srv().TenantQuota())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// Periodic compaction: without it a mutation-heavy daemon grows the
	// log (and the crash-recovery replay time) without bound between
	// restarts. Only runs when the log actually grew; failures are
	// logged, not fatal — the log itself is still the durable record.
	if *ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if !cur().LogPending() {
						continue // nothing logged since the last fold
					}
					start := time.Now()
					if err := cur().Checkpoint(); err != nil {
						fmt.Fprintf(logw, "tedd: periodic checkpoint: %v\n", err)
						continue
					}
					fmt.Fprintf(logw, "tedd: periodic checkpoint in %v\n", time.Since(start).Round(time.Millisecond))
				}
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: flip the admission gate first so queued arrivals
	// stop reaching the engine, then let http.Server wait out the
	// requests already in flight.
	fmt.Fprintf(logw, "tedd: draining\n")
	srv().Drain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(logw, "tedd: shutdown: %v\n", err)
	}
	if !*noCheckpoint {
		start = time.Now()
		if err := cur().Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(logw, "tedd: checkpointed %d trees in %v\n", cur().Len(), time.Since(start).Round(time.Millisecond))
	}
	return cur().Close()
}
