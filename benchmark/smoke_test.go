package main

import (
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload traced at a tiny scale and checks the
// contract between the program and BENCHMARK.json: every metric it names
// is printed, with its unit, for every workload; no request fails; every
// checked answer is right; the closing JSON line carries exactly the
// named metrics; and the traced run records a span at every layer the
// workload reaches.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1, window: time.Second, warmup: 200 * time.Millisecond, minSetups: 1, scale: 0.01, traced: true}
	spans := map[string][]string{
		"point":  {"client.request", "server.handler", "json.decode", "ted.Parse", "corpus.PrepareQuery", "corpus.Prepared", "batch.Engine.Distance", "batch.Engine.DistanceBounded", "ted.Distance", "json.encode"},
		"topk":   {"client.request", "server.handler", "json.decode", "ted.Parse", "corpus.PrepareQuery", "corpus.TopKAcross", "json.encode"},
		"join":   {"client.request", "server.handler", "json.decode", "corpus.Join", "json.encode"},
		"ingest": {"client.request", "server.handler", "json.decode", "corpus.Prepared", "batch.Engine.DistanceBounded", "corpus.Add", "corpus.Sync", "json.encode"},
	}
	for _, w := range workloads {
		if !slices.ContainsFunc(sp.Workloads, func(s specWorkload) bool { return s.Name == w.name }) {
			t.Errorf("BENCHMARK.json does not list workload %s", w.name)
		}
		rep, tr, err := runWorkload(cfg, w, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: wrong answers: %v", w.name, rep.Problems)
		}
		if rep.Failed != 0 || rep.Metrics["fail_ratio"].Value != 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, rep.Failed, rep.Attempted)
		}
		printed := map[string]string{}
		for _, l := range rep.lines() {
			f := strings.Fields(l)
			if len(f) != 4 || f[0] != w.name {
				t.Fatalf("%s: malformed line %q", w.name, l)
			}
			printed[f[1]] = f[3]
		}
		for _, m := range append(slices.Clone(sp.EndToEnd), sp.PerLayer...) {
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: metric %s printed with unit %q (printed: %v), BENCHMARK.json says %q", w.name, m.Name, unit, ok, m.Unit)
			}
		}
		for _, traced := range []bool{false, true} {
			line, err := resultLine([]*report{rep}, sp, traced)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &res); err != nil || res.Correct == nil || res.Attempted == nil || res.Failed == nil || *res.Attempted < 1 {
				t.Fatalf("%s: result line %s: %v", w.name, line, err)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: result line has %d metrics, BENCHMARK.json names %d", w.name, len(res.Metrics), len(want))
			}
		}
		for _, name := range spans[w.name] {
			if len(tr.byName(name)) == 0 {
				t.Errorf("%s: no %s span", w.name, name)
			}
		}
	}
}
