// Command tedc is the cluster face of the corpus: a join/top-k worker
// process, and a command-line coordinator that partitions a query over
// a fleet of workers and merges their streams.
//
// Usage:
//
//	tedc worker -corpus snap.tedc -addr 127.0.0.1:7411     # serve ranges
//	tedc join   -workers host:7411,host:7412 -tau 6        # distributed join
//	tedc topk   -workers host:7411,host:7412 -k 10 -query '{a{b}{c}}'
//
// Every worker Loads the same snapshot file (read-only — no write-ahead
// log, no lock conflict with a primary tedd serving the same path), so
// snapshot positions mean the same trees everywhere; the coordinator
// verifies that by fingerprint before partitioning. The merged join
// match set is identical — pair for pair, distance for distance — to a
// single-node `ted -join -corpus-load` over the same snapshot and tau,
// and match lines print in the same `i<TAB>j<TAB>dist` format so the
// two outputs diff clean (stats ride on `#` comment lines).
//
// A worker that dies mid-range is survivable: the coordinator discards
// the partial stream, retires the worker, and re-dispatches the whole
// range to a live one. Results commit per range only on its terminal
// frame, so no match is lost and none duplicated.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"time"

	"repro/batch"
	"repro/cluster"
	"repro/corpus"
	"repro/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "tedc: %v\n", err)
		os.Exit(1)
	}
}

// run is main with its environment explicit; ready (if non-nil)
// receives the worker's bound address once it is accepting — the hook
// tests and the cluster smoke script poll.
func run(args []string, stdout, logw io.Writer, ready chan<- string) error {
	if len(args) == 0 {
		return errors.New("usage: tedc <worker|join|topk> [flags]")
	}
	switch args[0] {
	case "worker":
		return runWorker(args[1:], logw, ready)
	case "join":
		return runJoin(args[1:], stdout, logw)
	case "topk":
		return runTopK(args[1:], stdout, logw)
	}
	return fmt.Errorf("unknown subcommand %q (worker | join | topk)", args[0])
}

func runWorker(args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("tedc worker", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		corpusPath = fs.String("corpus", "", "snapshot file to serve ranges over (required)")
		addr       = fs.String("addr", "127.0.0.1:0", "listen address")
		workers    = fs.Int("workers", 0, "evaluation goroutines (0 = all CPU cores)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpusPath == "" {
		return errors.New("-corpus is required")
	}
	start := time.Now()
	c, err := corpus.LoadFile(*corpusPath)
	if err != nil {
		return err
	}
	var eopts []batch.Option
	if *workers > 0 {
		eopts = append(eopts, batch.WithWorkers(*workers))
	}
	w := cluster.NewWorker(c, eopts...)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "tedc: worker on %s: %d trees (loaded+warmed in %v)\n",
		ln.Addr(), c.Len(), time.Since(start).Round(time.Millisecond))
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return w.Serve(ln)
}

func parseWorkers(s string) ([]string, error) {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("-workers needs a comma-separated list of worker addresses")
	}
	return addrs, nil
}

func runJoin(args []string, stdout, logw io.Writer) error {
	fs := flag.NewFlagSet("tedc join", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		workerList = fs.String("workers", "", "comma-separated worker addresses (required)")
		tau        = fs.Float64("tau", 10, "join distance threshold")
		inf        = fs.Bool("inf", false, "unbounded join (tau = +Inf)")
		mode       = fs.String("mode", "auto", "candidate generator: auto | enumerate | histogram | pqgram")
		q          = fs.Int("q", 0, "pq-gram base length for -mode pqgram")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := parseWorkers(*workerList)
	if err != nil {
		return err
	}
	m, err := batch.ParseIndexMode(*mode)
	if err != nil {
		return fmt.Errorf("-mode: %w", err)
	}
	t := *tau
	if *inf {
		t = math.Inf(1)
	}
	co := cluster.NewCoordinator(addrs)
	ms, st, err := co.Join(t, batch.JoinOptions{Mode: m, Q: *q})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# %d workers, %d candidates (mode %s, probed in %v), %d subproblems, %v\n",
		len(addrs), st.Comparisons, st.Mode, st.IndexTime.Round(time.Microsecond), st.Subproblems, st.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "# filters: %d lb-pruned, %d ub-accepted, %d exact\n",
		st.LowerPruned, st.UpperAccepted, st.ExactComputed)
	for _, p := range ms {
		fmt.Fprintf(stdout, "%d\t%d\t%g\n", p.I, p.J, p.Dist)
	}
	return nil
}

func runTopK(args []string, stdout, logw io.Writer) error {
	fs := flag.NewFlagSet("tedc topk", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		workerList = fs.String("workers", "", "comma-separated worker addresses (required)")
		k          = fs.Int("k", 10, "result count")
		query      = fs.String("query", "", "query tree in bracket notation (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := parseWorkers(*workerList)
	if err != nil {
		return err
	}
	if *query == "" {
		return errors.New("-query is required")
	}
	qt, err := tree.ParseBracket(strings.TrimSpace(*query))
	if err != nil {
		return fmt.Errorf("-query: %w", err)
	}
	co := cluster.NewCoordinator(addrs)
	ms, st, err := co.TopK(qt, *k)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# %d workers, %d subproblems (%d pruned)\n",
		len(addrs), st.Subproblems, st.PrunedSubproblems)
	for _, m := range ms {
		fmt.Fprintf(stdout, "%d\t%d\t%g\n", m.Tree, m.Root, m.Dist)
	}
	return nil
}
