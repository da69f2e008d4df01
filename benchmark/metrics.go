package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
)

// Quantiles are exact nearest-rank order statistics over every sample.
// load.Hist would quantize them to its buckets, and a quantized value
// can read the same on every run, which hides the spread a regression
// bound is judged against.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(r, 1), len(sorted))-1]
}

func sortedCopy(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// failedLatency stands in for a failed request's latency: a request that
// fails or is refused misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// latencies returns the sorted latencies of the samples sel selects.
func latencies(ss []sample, sel func(s *sample) bool) []time.Duration {
	var ds []time.Duration
	for i := range ss {
		s := &ss[i]
		if !sel(s) {
			continue
		}
		if s.ok() {
			ds = append(ds, s.latency())
		} else {
			ds = append(ds, failedLatency)
		}
	}
	slices.Sort(ds)
	return ds
}

func (p *plan) isHeadline(s *sample) bool { return p.headline(s.idx) }

func okCount(ss []sample) int {
	n := 0
	for i := range ss {
		if ss[i].ok() {
			n++
		}
	}
	return n
}

// length of a pass: the scheduled length for an open loop, until the
// last response for a closed one.
func (p *plan) length(ps *pass) time.Duration {
	if len(p.steps) > 0 {
		return p.steps[len(p.steps)-1].to
	}
	var last time.Duration
	for _, s := range ps.samples {
		last = max(last, s.done)
	}
	return last
}

func medianSetup(setups []setupTimes, part func(setupTimes) time.Duration) time.Duration {
	ds := make([]time.Duration, len(setups))
	for i, s := range setups {
		ds[i] = part(s)
	}
	return quantile(sortedCopy(ds), 0.5)
}

// levelStats describes one offered rate of an open loop, over every
// step that offers it.
type levelStats struct {
	achieved  float64 // req/s
	p99       time.Duration
	lateP99   time.Duration
	sustained bool
}

// maxLatency is the p99 limit a rate must meet to count toward
// max_rate_rps. Bursts in which a small shared machine's CPU slows down
// put p99 at 15–75 ms at every rate below the knee; the limit leaves
// room for them, and a rate past the knee fails on its achieved rate and
// its growing lateness instead.
const maxLatency = 100 * time.Millisecond

// levelOf evaluates one rate. achieved is the requests due in its steps
// over the time until the last of each step's requests was sent (at
// least the step's length), so a generator that falls behind shows a
// lower rate. A rate is sustained when its p99 meets maxLatency, nothing
// failed, it achieved within 5% of its scheduled rate, and lateness did
// not grow within its steps: the median lateness of the steps' last
// quarters is within 1 ms of their first quarters'.
func levelOf(rate float64, steps []step, ss []sample) levelStats {
	var (
		in           []sample
		first, final []time.Duration
		length, busy time.Duration
		failed, si   int
	)
	for _, st := range steps {
		if st.rate != rate {
			continue
		}
		q := (st.to - st.from) / 4
		lastSent := st.to
		for ; si < len(ss) && ss[si].due < st.to; si++ {
			s := ss[si]
			if s.due < st.from {
				continue
			}
			in = append(in, s)
			lastSent = max(lastSent, s.sent)
			switch {
			case s.due < st.from+q:
				first = append(first, s.lateness())
			case s.due >= st.to-q:
				final = append(final, s.lateness())
			}
		}
		length += st.to - st.from
		busy += lastSent - st.from
	}
	late := make([]time.Duration, len(in))
	for i := range in {
		late[i] = in[i].lateness()
		if !in[i].ok() {
			failed++
		}
	}
	out := levelStats{
		achieved: float64(len(in)) / busy.Seconds(),
		p99:      quantile(latencies(in, func(*sample) bool { return true }), 0.99),
		lateP99:  quantile(sortedCopy(late), 0.99),
	}
	scheduled := float64(len(in)) / length.Seconds()
	growing := quantile(sortedCopy(final), 0.5) > quantile(sortedCopy(first), 0.5)+time.Millisecond
	out.sustained = out.p99 <= maxLatency && failed == 0 && out.achieved >= 0.95*scheduled && !growing
	return out
}

// latenessP99 is how late the generator sent the headline requests:
// their p99 of send time minus due time.
func latenessP99(p *plan, ss []sample) time.Duration {
	var late []time.Duration
	for i := range ss {
		if p.isHeadline(&ss[i]) {
			late = append(late, ss[i].lateness())
		}
	}
	return quantile(sortedCopy(late), 0.99)
}

// endToEnd sets the metrics a user of the server sees, from the untraced
// pass.
func endToEnd(rep *report, w workload, p *plan, un *pass, setups []setupTimes, heap uint64, acks map[int64]string) {
	head := latencies(un.samples, p.isHeadline)
	rep.set("setup_s", medianSetup(setups, func(t setupTimes) time.Duration { return t.total }).Seconds(), "s")
	rep.set("p50_ms", ms(quantile(head, 0.5)), "ms")
	rep.set("p90_ms", ms(quantile(head, 0.9)), "ms")
	rep.set("p99_ms", ms(quantile(head, 0.99)), "ms")
	rep.set("samples", float64(len(head)), "count")
	rep.set("ok_rps", float64(okCount(un.samples))/p.length(un).Seconds(), "req/s")
	rep.set("heap_mb", float64(heap)/1e6, "MB")
	failed := len(un.samples) - okCount(un.samples)
	rep.set("fail_ratio", ratio(float64(failed), float64(len(un.samples))), "ratio")

	if w.name == "point" {
		maxRate, sustained := 0.0, true
		for _, rate := range pointRates {
			lv := levelOf(rate, p.steps, un.samples)
			name := "rate" + strconv.FormatFloat(rate, 'f', -1, 64)
			rep.set(name+".achieved_rps", lv.achieved, "req/s")
			rep.set(name+".p99_ms", ms(lv.p99), "ms")
			rep.set(name+".lateness_ms_p99", ms(lv.lateP99), "ms")
			if sustained = sustained && lv.sustained; sustained {
				maxRate = rate
			}
		}
		rep.set("max_rate_rps", maxRate, "req/s")
	}
	if len(acks) > 0 {
		writes := latencies(un.samples, func(s *sample) bool { return s.ep == epWrite })
		rep.set("write_p50_ms", ms(quantile(writes, 0.5)), "ms")
		rep.set("write_p99_ms", ms(quantile(writes, 0.99)), "ms")
		rep.set("write_samples", float64(len(writes)), "count")
		rep.set("wal_bytes_per_user_byte", ratio(float64(un.walBytes), float64(postedBytes(p, un))), "ratio")
	}
}

// postedBytes is the tree text the pass's acknowledged writes carried.
func postedBytes(p *plan, ps *pass) int {
	n := 0
	for i := range ps.samples {
		s := &ps.samples[i]
		if s.ep != epWrite || !s.ok() {
			continue
		}
		var in struct{ Tree string }
		if json.Unmarshal(p.request(s.idx).body, &in) == nil {
			n += len(in.Tree)
		}
	}
	return n
}

// perLayer sets the per-layer metrics of a traced run: span timings from
// the traced pass and the replay, counters from the replay.
func perLayer(rep *report, w workload, p *plan, un, meas *pass, tr *tracer, wk *work, setups []setupTimes, checkpoint time.Duration) {
	p50 := func(name string) time.Duration { return quantile(sortedCopy(tr.byName(name)), 0.5) }

	// server: handler span against the client span around it.
	handlers := tr.handlerSpans()
	var handler, transport []time.Duration
	for i := range meas.samples {
		s := &meas.samples[i]
		h, ok := handlers[int64(s.idx+1)]
		if !ok || !p.isHeadline(s) {
			continue
		}
		handler = append(handler, h.dur())
		transport = append(transport, s.done-s.sent-h.dur())
	}
	handler = sortedCopy(handler)
	rep.set("server.handler_ms_p50", ms(quantile(handler, 0.5)), "ms")
	rep.set("server.handler_ms_p99", ms(quantile(handler, 0.99)), "ms")
	rep.set("server.transport_ms_p50", ms(quantile(sortedCopy(transport), 0.5)), "ms")
	rep.set("server.decode_us_p50", us(p50("json.decode")), "us")
	rep.set("server.encode_us_p50", us(p50("json.encode")), "us")
	rep.set("server.shed", float64(meas.stats[1].Shed-meas.stats[0].Shed), "count")
	rep.set("server.abandoned", float64(meas.stats[1].Abandoned-meas.stats[0].Abandoned), "count")

	rep.set("corpus.parse_us_p50", us(p50("ted.Parse")), "us")
	rep.set("corpus.prepare_query_us_p50", us(p50("corpus.PrepareQuery")), "us")
	rep.set("corpus.prepared_us_p50", us(p50("corpus.Prepared")), "us")
	rep.set("corpus.open_s", medianSetup(setups, func(t setupTimes) time.Duration { return t.open }).Seconds(), "s")
	rep.set("corpus.warm_s", medianSetup(setups, func(t setupTimes) time.Duration { return t.warm }).Seconds(), "s")
	syncs := sortedCopy(tr.byName("corpus.Sync"))
	rep.set("corpus.add_us_p50", us(p50("corpus.Add")), "us")
	rep.set("corpus.sync_us_p50", us(quantile(syncs, 0.5)), "us")
	rep.set("corpus.sync_us_p90", us(quantile(syncs, 0.9)), "us")
	writes := 0
	for i := range meas.samples {
		if meas.samples[i].ep == epWrite && meas.samples[i].ok() {
			writes++
		}
	}
	rep.set("corpus.wal_bytes_per_write", ratio(float64(meas.walBytes), float64(writes)), "bytes")
	rep.set("corpus.checkpoint_s", checkpoint.Seconds(), "s")

	cands := float64(wk.candidates)
	rep.set("index.probe_ms_p50", ms(quantile(sortedCopy(wk.probeTimes), 0.5)), "ms")
	rep.set("index.candidates_per_join", ratio(cands, float64(wk.joinCalls)), "count")
	rep.set("index.candidates_per_match", ratio(cands, float64(wk.matches)), "ratio")

	rep.set("bounds.lower_pruned_ratio", ratio(float64(wk.lowerPruned), cands), "ratio")
	rep.set("bounds.upper_accepted_ratio", ratio(float64(wk.upperAccepted), cands), "ratio")
	rep.set("bounds.bounded_skip_ratio", ratio(float64(wk.boundedSkipped), float64(wk.boundedReads)), "ratio")

	rep.set("batch.join_ms_p50", ms(quantile(sortedCopy(wk.joinTimes), 0.5)), "ms")
	rep.set("batch.exact_ratio", ratio(float64(wk.exact), cands), "ratio")
	rep.set("batch.topk_ms_p50", ms(p50("corpus.TopKAcross")), "ms")

	var strat time.Duration
	for _, d := range wk.strategyTimes {
		strat += d
	}
	rep.set("strategy.share", ratio(float64(strat), float64(wk.totalTime)), "ratio")
	rep.set("strategy.us_p50", us(quantile(sortedCopy(wk.strategyTimes), 0.5)), "us")

	calls := float64(wk.engineCalls)
	rep.set("gted.subproblems_per_req", ratio(float64(wk.subproblems), calls), "count")
	rep.set("gted.pruned_ratio", ratio(float64(wk.pruned), float64(wk.subproblems+wk.pruned)), "ratio")
	rep.set("gted.pruned_keyroots_per_req", ratio(float64(wk.prunedKeyroots), calls), "count")
	rep.set("gted.row_cells_per_req", ratio(float64(wk.rowCells), calls), "count")
	rep.set("gted.compressed_rows_per_req", ratio(float64(wk.compressedRows), calls), "count")
	rep.set("gted.ns_per_subproblem", ratio(float64(wk.engineTime), float64(wk.subproblems)), "ns")
	rep.set("gted.cells_per_ntau2", ratio(float64(wk.boundedCells), wk.boundedNTau2), "ratio")

	rt0, rt1 := meas.rt[0], meas.rt[1]
	used := (rt1.totalCPU - rt0.totalCPU) - (rt1.idleCPU - rt0.idleCPU)
	rep.set("runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, used), "ratio")
	rep.set("runtime.alloc_kb_per_req", ratio(float64(rt1.allocBytes-rt0.allocBytes)/1024, float64(len(meas.samples))), "KiB")

	rep.set("benchmark.lateness_ms_p99", ms(latenessP99(p, meas.samples)), "ms")
	achieved := float64(okCount(meas.samples)) / p.length(meas).Seconds()
	if w.name == "point" {
		achieved = levelOf(pointHeadlineRate, p.steps, meas.samples).achieved
	}
	rep.set("benchmark.achieved_rps", achieved, "req/s")

	before := quantile(latencies(un.samples, p.isHeadline), 0.5)
	after := quantile(latencies(meas.samples, p.isHeadline), 0.5)
	rep.set("trace.overhead_pct", 100*ratio(float64(after-before), float64(before)), "%")
}

// report is one workload run's outcome: what was attempted, what failed,
// whether every checked answer was right, and every metric by name.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(workload string, cfg config) *report {
	return &report{Workload: workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Traced: cfg.traced, Metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; dup {
		panic(fmt.Sprintf("metric %s set twice", name))
	}
	r.Metrics[name] = metric{v, unit}
	r.order = append(r.order, name)
}

// lines renders every metric as "workload metric value unit".
func (r *report) lines() []string {
	out := make([]string, len(r.order))
	for i, name := range r.order {
		m := r.Metrics[name]
		out[i] = fmt.Sprintf("%s %s %s %s", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	return out
}
