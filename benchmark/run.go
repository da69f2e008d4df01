package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/corpus"
	"repro/server"
)

// config is one invocation's settings.
type config struct {
	seed      int64
	window    time.Duration // measured per workload
	warmup    time.Duration
	minSetups int     // set-ups per run at least; setup_s is their median
	scale     float64 // corpus-size multiplier: 1 from the command line, small in the smoke test
	traced    bool
}

// A run sets up at least minSetups times and keeps setting up until
// setupBudget is spent, up to maxSetups: a small corpus sets up in
// milliseconds, and the median of a few such set-ups is noise.
const (
	setupBudget = time.Second
	maxSetups   = 50
)

// grace bounds how long an open loop may run past its schedule before
// the requests it has not sent yet count as failed.
const grace = 5 * time.Second

// pass is one timed walk over a plan's requests.
type pass struct {
	samples  []sample
	start    time.Time
	stats    [2]server.StatsResponse // before, after
	rt       [2]runtimeSample
	walBytes int64 // write-ahead log growth
}

type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64 // seconds
	allocBytes               uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Uint64()}
}

// liveHeap forces two collections — the second drops what sync.Pool
// caches survived the first — and returns the live heap marked.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// runWorkload runs one workload end to end: generate, snapshot, set up
// (timed, several times), warm up, measure, check, and — traced — replay
// through every layer. Progress goes to log.
func runWorkload(cfg config, w workload, log io.Writer) (*report, *tracer, error) {
	dir, err := os.MkdirTemp("", "tedbench-"+w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// A traced run splits the window into two passes over the same
	// requests: untraced, whose numbers are the end-to-end metrics, then
	// traced, whose difference from it is the tracing overhead.
	length := cfg.window
	if cfg.traced {
		length /= 2
	}
	p := w.plan(cfg.seed, cfg.scale, length, cfg.warmup)
	path := filepath.Join(dir, "corpus.tedc")
	if err := writeSnapshot(path, p.trees); err != nil {
		return nil, nil, fmt.Errorf("write snapshot: %w", err)
	}
	fmt.Fprintf(log, "%s: %d trees, %d requests per pass\n", w.name, len(p.trees), len(p.reqs))
	p.trees = nil // the snapshot holds the corpus from here on

	var (
		tr   *tracer
		wrap func(http.Handler) http.Handler
	)
	if cfg.traced {
		tr = newTracer()
		wrap = tr.wrap
	}
	// Set up repeatedly — at least minSetups times and for setupBudget —
	// and keep the last stack: setup_s is the median.
	var (
		setups []setupTimes
		spent  time.Duration
		st     *stack
	)
	for len(setups) < cfg.minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, err
			}
			st = nil
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		s, t, err := openStack(path, wrap)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		st, setups, spent = s, append(setups, t), spent+t.total
	}
	defer func() { st.close() }() // on error paths; the success path checks close

	d := newDriver(st.url)
	defer d.close()
	d.keep = func(_ int, ep endpoint) bool { return ep == epWrite }
	var warm []sample
	if w.open {
		warm, _ = d.open(p.warm, p.warmDue, grace)
	} else {
		warm, _ = d.closed(p.warm, cfg.warmup)
	}

	sampled := chooseSample(cfg.seed, p, w.open)
	d.keep = func(idx int, ep endpoint) bool {
		return sampled[idx] || ep == epWrite || ep == epJoin || ep == epJoinStream
	}
	run := func(traced bool) *pass {
		d.traced = traced
		ps := &pass{}
		ps.stats[0], ps.rt[0] = st.srv.Stats(), readRuntime()
		wal := fileSize(path + ".wal")
		if w.open {
			ps.samples, ps.start = d.open(p.reqs, p.due, grace)
		} else {
			ps.samples, ps.start = d.closed(p.reqs, length)
		}
		ps.stats[1], ps.rt[1] = st.srv.Stats(), readRuntime()
		ps.walBytes = fileSize(path+".wal") - wal
		return ps
	}
	un := run(false)
	heap := liveHeap()
	meas := un
	if cfg.traced {
		meas = run(true)
		recordClientSpans(tr, meas)
	}

	passes := []*pass{un}
	if cfg.traced {
		passes = append(passes, meas)
	}
	k := &checker{c: st.c, e: st.srv.Engine(), tr: tr, joins: map[float64][]corpus.Match{}}
	for _, ps := range passes {
		for i := range ps.samples {
			s := &ps.samples[i]
			r := p.request(s.idx)
			switch {
			case !s.ok():
			case ps == meas && sampled[s.idx]:
				k.replay(s, r)
			case r.ep == epJoin || r.ep == epJoinStream:
				k.joinResponse("r"+strconv.Itoa(s.idx+1), r, s)
			}
		}
	}

	// Durability: every acknowledged write must come back, exactly, from
	// a reopened corpus.
	acks := map[int64]string{}
	if err := collectAcks(acks, p.warm, warm); err != nil {
		k.failf("%v", err)
	}
	for _, ps := range passes {
		if err := collectAcks(acks, p.reqs, ps.samples); err != nil {
			k.failf("%v", err)
		}
	}
	if err := st.stopServing(); err != nil {
		return nil, nil, err
	}
	if len(acks) > 0 {
		if cfg.traced {
			if err := replayWrites(k, cfg.seed, dir, path, p); err != nil {
				return nil, nil, err
			}
		}
		if err := st.c.Close(); err != nil {
			return nil, nil, err
		}
		if st.c, err = corpus.Open(path, corpus.WithHistogramIndex()); err != nil {
			return nil, nil, fmt.Errorf("reopen: %w", err)
		}
		k.checkAcks(st.c, acks)
	}
	var checkpoint time.Duration
	if cfg.traced {
		start := time.Now()
		if err := st.c.Checkpoint(); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: %w", err)
		}
		checkpoint = time.Since(start)
	}
	if err := st.close(); err != nil {
		return nil, nil, err
	}

	rep := newReport(w.name, cfg)
	rep.Correct = k.ok()
	rep.Problems = k.problems
	for _, ps := range passes {
		rep.Attempted += len(ps.samples)
		for i := range ps.samples {
			if !ps.samples[i].ok() {
				rep.Failed++
			}
		}
	}
	endToEnd(rep, w, p, un, setups, heap, acks)
	if cfg.traced {
		perLayer(rep, w, p, un, meas, tr, &k.work, setups, checkpoint)
	}
	return rep, tr, nil
}

// request returns the plan request sample idx carried.
func (p *plan) request(idx int) request { return p.reqs[idx%len(p.reqs)] }

// chooseSample picks, from the seed alone, the requests whose responses
// are replayed and checked after the window: 64 per point endpoint among
// an open loop's scheduled requests, 8 per top-k or join endpoint among
// the first 64 a closed loop sends.
func chooseSample(seed int64, p *plan, open bool) map[int]bool {
	per := make([][]int, numEndpoints)
	n, take := len(p.reqs), 64
	if !open {
		n, take = 64, 8
	}
	for i := 0; i < n; i++ {
		if ep := p.request(i).ep; ep != epWrite {
			per[ep] = append(per[ep], i)
		}
	}
	rng := rngFor(seed, 4)
	chosen := make(map[int]bool)
	for _, idx := range per {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx[:min(take, len(idx))] {
			chosen[i] = true
		}
	}
	return chosen
}

// recordClientSpans adds the traced pass's client.request spans: request
// i is span i+1, the parent its X-Request-ID names. It first waits (a
// bounded while) for handlers that answered but have not yet recorded
// their own span.
func recordClientSpans(tr *tracer, ps *pass) {
	answered := 0
	for i := range ps.samples {
		if ps.samples[i].status != 0 {
			answered++
		}
	}
	for deadline := time.Now().Add(2 * time.Second); len(tr.byName("server.handler")) < answered && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	for _, s := range ps.samples {
		id := int64(s.idx + 1)
		tr.add(&span{
			ID: id, Name: "client.request", Req: strconv.FormatInt(id, 10),
			Start: tr.at(ps.start, s.sent), End: tr.at(ps.start, s.done),
			Attrs: map[string]int64{"status": int64(s.status), "lateness_ns": int64(s.lateness())},
		})
	}
}

// collectAcks maps every acknowledged write's ID to the tree it posted.
func collectAcks(acks map[int64]string, reqs []request, ss []sample) error {
	for _, s := range ss {
		r := reqs[s.idx%len(reqs)]
		if r.ep != epWrite || !s.ok() {
			continue
		}
		var (
			in  server.TreeRequest
			out server.TreeResponse
		)
		if err := json.Unmarshal(r.body, &in); err != nil {
			return fmt.Errorf("write request: %v", err)
		}
		if err := json.Unmarshal(s.body, &out); err != nil {
			return fmt.Errorf("write response %q: %v", s.body, err)
		}
		if prev, dup := acks[out.ID]; dup && prev != in.Tree {
			return fmt.Errorf("id %d acknowledged for two different trees", out.ID)
		}
		acks[out.ID] = in.Tree
	}
	return nil
}

// replayWrites applies a seeded sample of the plan's writes to a copy
// of the corpus directory, one corpus.Add and corpus.Sync each, as the
// write handler does.
func replayWrites(k *checker, seed int64, dir, path string, p *plan) error {
	cp := filepath.Join(dir, "copy")
	if err := os.Mkdir(cp, 0o755); err != nil {
		return err
	}
	cpPath := filepath.Join(cp, filepath.Base(path))
	for _, suffix := range []string{"", ".wal"} {
		b, err := os.ReadFile(path + suffix)
		if err != nil {
			return err
		}
		if err := os.WriteFile(cpPath+suffix, b, 0o644); err != nil {
			return err
		}
	}
	c, err := corpus.Open(cpPath, corpus.WithHistogramIndex())
	if err != nil {
		return err
	}
	var writes []int
	for i, r := range p.reqs {
		if r.ep == epWrite {
			writes = append(writes, i)
		}
	}
	rng := rngFor(seed, 5)
	rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })
	writes = writes[:min(writeReplays, len(writes))]
	live := k.c
	k.c = c
	for _, i := range writes {
		k.write("w"+strconv.Itoa(i+1), p.reqs[i])
	}
	k.c = live
	return c.Close()
}

// writeReplays is how many writes a traced ingest run replays: enough
// for a p90 with ten samples beyond it.
const writeReplays = 128
