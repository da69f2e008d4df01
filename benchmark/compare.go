package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
)

// A verdict is -compare's judgement of one workload × metric.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judgement is one row of a comparison.
type judgement struct {
	parent, change summary
	verdict        string
}

// summary is a set of runs' values of one metric: the median and the
// quartiles as Python's statistics.quantiles(values, n=4) computes them.
type summary struct {
	n           int
	q1, med, q3 float64
}

func summarize(vs []float64) summary {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	sm := summary{n: n}
	if n == 0 {
		return sm
	}
	sm.med = s[n/2]
	if n%2 == 0 {
		sm.med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		sm.q1, sm.q3 = s[0], s[0]
		return sm
	}
	// The "exclusive" method of statistics.quantiles.
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	sm.q1, sm.q3 = q(1), q(3)
	return sm
}

// judge compares a change's runs of one metric with its parent's. The
// runs pair up in order (the sets are run alternately, parent and change
// in turn). It returns:
//
//   - better: the change wins at least 9 of 10 pairs (ties count for
//     neither) and its median beats the parent's by more than the
//     parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     bound (a share of the parent's median) and by more than the
//     parent's interquartile range;
//   - unresolved: neither, and either side's interquartile range is
//     wider than the bound, unless every change run beats every parent
//     run;
//   - unchanged: otherwise.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) judgement {
	j := judgement{parent: summarize(parent), change: summarize(change)}
	beats := func(a, b float64) bool {
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(change[i], parent[i]) {
			wins++
		}
	}
	gain := j.change.med - j.parent.med
	if lowerIsBetter {
		gain = -gain
	}
	iqr := j.parent.q3 - j.parent.q1
	limit := bound * abs(j.parent.med)
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gain > iqr:
		j.verdict = better
	case -gain > limit && -gain > iqr:
		j.verdict = worse
	case max(iqr, j.change.q3-j.change.q1) > limit && !allBeat(change, parent, beats):
		j.verdict = unresolved
	default:
		j.verdict = unchanged
	}
	return j
}

func allBeat(change, parent []float64, beats func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !beats(c, p) {
				return false
			}
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// readRuns reads a set of runs: one report per line, as -out appends
// them.
func readRuns(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: line %d: %w", path, len(reps)+1, err)
		}
		reps = append(reps, &r)
	}
	return reps, sc.Err()
}

// values collects one metric of one workload across runs, in file
// order.
func values(reps []*report, workload, metric string) []float64 {
	var vs []float64
	for _, r := range reps {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// scopedMetrics are end-to-end metrics BENCHMARK.json does not list.
// Every metric there is reported, never 0, by every workload, and its
// run-to-run spread stays within its bound; fail_ratio is 0 in a good
// run, the tail percentiles spread wider than any bound on a small
// shared machine, and the rest belong to one workload. Their bounds
// live here.
var scopedMetrics = []specMetric{
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "max_rate_rps", Unit: "req/s", Better: "higher", Bound: 0},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "wal_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.02},
}

// compareFiles prints one row per workload × metric that both sets
// report: the end-to-end metrics of BENCHMARK.json and scopedMetrics,
// judged against their bounds, then the per-layer metrics, which have no
// bound and are judged against 0. It exits 1 if any end-to-end metric
// got worse.
func compareFiles(sp *spec, parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRuns(parentPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	change, err := readRuns(changePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintln(stdout, "workload metric unit bound parent_q1 parent_median parent_q3 parent_n change_q1 change_median change_q3 change_n verdict")
	e2e := append(slices.Clone(sp.EndToEnd), scopedMetrics...)
	for _, w := range sp.Workloads {
		for i, m := range append(slices.Clone(e2e), sp.PerLayer...) {
			pv, cv := values(parent, w.Name, m.Name), values(change, w.Name, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			j := judge(pv, cv, m.Better == "lower", m.Bound)
			if j.verdict == worse && i < len(e2e) {
				code = 1
			}
			f := func(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
			fmt.Fprintln(stdout, w.Name, m.Name, m.Unit, f(m.Bound),
				f(j.parent.q1), f(j.parent.med), f(j.parent.q3), j.parent.n,
				f(j.change.q1), f(j.change.med), f(j.change.q3), j.change.n, j.verdict)
		}
	}
	return code
}
