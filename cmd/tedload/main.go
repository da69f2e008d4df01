// Command tedload drives one or more live tedd targets with a mixed
// workload, prints how many requests per endpoint and per target came
// back ok, shed or with an error, and exits nonzero on any error. It is
// the smoke scripts' correctness gate; latency and throughput come from
// the benchmark module (benchmark/, BENCHMARK.json).
//
// Usage:
//
//	tedload -url http://127.0.0.1:8420                      # default mix
//	tedload -url ... -mix distance=4,bounded=3,mutate=1 \
//	        -tau 8 -conc 8 -n 400
//	tedload -url ... -mix join_stream=1 -tau 6              # NDJSON streaming joins
//	tedload -url ... -tenant batch &                        # two tenants
//	tedload -url ... -tenant web -seed 2                    #   driving one server
//	tedload -url http://host:8420,http://host:8421 \
//	        -mix distance=4,bounded=3,topk=2                # round-robin over replicas
//
// -url takes a comma-separated list: with several targets the request
// stream (unchanged — generation is target-blind) is dealt across them
// round-robin. The targets must serve the same corpus (a primary and
// its read replicas); keep mutate out of the mix, since replicas refuse
// writes with 403.
//
// The request stream is generated deterministically from -seed and a
// snapshot of the served corpus (taken over the API before the run), so
// a run is reproducible against an identically loaded server; distinct
// seeds generate disjoint mutation content, so several tedload
// processes can drive one server together. -conc workers each keep one
// request in flight. Responses shed by admission control (503) are
// counted as shed, not as errors. Any other non-2xx status, transport
// failure, or streamed response without its done record is an error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/load"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tedload: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tedload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url       = fs.String("url", "", "target base URL(s), comma-separated; several round-robin across replicas (required)")
		mixStr    = fs.String("mix", "distance=4,bounded=3,topk=2,join=0.2,mutate=1", "endpoint mix in ratio weights")
		tau       = fs.Float64("tau", 8, "bounded-distance and join threshold")
		k         = fs.Int("k", 3, "top-k request size")
		joinMode  = fs.String("join-mode", "auto", "join candidate generator: auto | enumerate | histogram | pqgram")
		joinLimit = fs.Int("join-limit", 64, "matches a join response may carry")
		tenant    = fs.String("tenant", "", "X-Tenant header for every request (empty = server default tenant)")
		seed      = fs.Int64("seed", 1, "request-stream seed (distinct seeds → disjoint mutation content)")
		conc      = fs.Int("conc", 8, "workers, each with one request in flight")
		n         = fs.Int("n", 400, "requests to send")
		timeout   = fs.Duration("timeout", 2*time.Minute, "per-request HTTP timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return errors.New("-url is required")
	}
	mix, err := load.ParseMix(*mixStr)
	if err != nil {
		return err
	}
	spec := load.Spec{
		Mix: mix, Tau: *tau, K: *k,
		JoinMode: *joinMode, JoinLimit: *joinLimit,
		Tenant: *tenant,
		Seed:   *seed, Conc: *conc, Requests: *n,
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	var targets []string
	for _, u := range strings.Split(*url, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			targets = append(targets, u)
		}
	}
	if len(targets) == 0 {
		return errors.New("-url needs at least one target URL")
	}

	client := &http.Client{Timeout: *timeout}
	// One snapshot seeds the whole stream: the targets serve the same
	// corpus, so the first one speaks for the fleet.
	snap, err := load.FetchSnapshot(client, targets[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tedload: snapshot: %d live trees; %d requests, %d workers, %d target(s)\n",
		len(snap.IDs), spec.Requests, spec.Conc, len(targets))

	r := &load.Runner{Targets: targets, Client: client, Spec: spec, Snap: snap}
	res, err := r.Run(context.Background())
	if err != nil {
		return err
	}
	res.WriteTable(stdout)
	if res.Total.Errors > 0 {
		return fmt.Errorf("%d errors (first: %s)", res.Total.Errors, res.Total.FirstError)
	}
	return nil
}
