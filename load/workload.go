package load

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/corpus"
	"repro/server"
)

// The endpoint names a workload mix may weight. Each maps to one API
// route; "mutate" is POST /v1/trees with a generated near-duplicate
// tree whose root label carries a seed-unique mutation tag.
const (
	EpDistance   = "distance"
	EpBounded    = "bounded"
	EpJoin       = "join"
	EpJoinStream = "join_stream"
	EpTopK       = "topk"
	EpTopKStream = "topk_stream"
	EpMutate     = "mutate"
)

// Endpoints lists the valid mix keys in canonical (reporting) order.
var Endpoints = []string{EpDistance, EpBounded, EpJoin, EpJoinStream, EpTopK, EpTopKStream, EpMutate}

// streamEndpoints marks the NDJSON endpoints, whose responses must end
// with a done record.
var streamEndpoints = map[string]bool{EpJoinStream: true, EpTopKStream: true}

// Spec declares a workload: what to send (Mix, Tau, K, JoinMode), with
// how many workers (Conc), and how much (Requests). A Spec plus a
// Snapshot plus a seed fully determines the request stream — see Gen.
type Spec struct {
	// Mix weights the endpoints; weights are ratios, not probabilities
	// (they need not sum to 1). Endpoints absent or ≤ 0 are never
	// generated.
	Mix map[string]float64

	// Tau is the bounded-distance and join threshold.
	Tau float64
	// K is the top-k request size.
	K int
	// JoinMode picks the join candidate generator ("auto", "enumerate",
	// "histogram", "pqgram"); empty means auto.
	JoinMode string
	// JoinLimit caps the matches a join response carries (0 = a small
	// default).
	JoinLimit int

	// Tenant, when non-empty, tags every request of the run with an
	// X-Tenant header — the key the server's per-tenant admission quotas
	// and counters group by. Two concurrent runs under different tenants
	// are how the multi-tenant isolation experiment is driven.
	Tenant string

	// Seed drives request generation (operand choice, endpoint choice,
	// mutation tags).
	Seed int64

	// Conc workers each keep exactly one request in flight.
	Conc int
	// Requests is the number of requests the run sends.
	Requests int
}

// Validate reports the first problem with the spec.
func (s Spec) Validate() error {
	total := 0.0
	for ep, w := range s.Mix {
		valid := false
		for _, known := range Endpoints {
			if ep == known {
				valid = true
				break
			}
		}
		if !valid {
			return fmt.Errorf("mix: unknown endpoint %q (valid: %s)", ep, strings.Join(Endpoints, ", "))
		}
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return fmt.Errorf("mix: no endpoint has positive weight")
	}
	if s.Tau < 0 {
		return fmt.Errorf("tau must be ≥ 0 (got %g)", s.Tau)
	}
	if w := s.Mix[EpTopK]; w > 0 && s.K < 1 {
		return fmt.Errorf("k must be ≥ 1 when topk is in the mix (got %d)", s.K)
	}
	if w := s.Mix[EpTopKStream]; w > 0 && s.K < 1 {
		return fmt.Errorf("k must be ≥ 1 when topk_stream is in the mix (got %d)", s.K)
	}
	if s.Conc < 1 {
		return fmt.Errorf("concurrency must be ≥ 1 (got %d)", s.Conc)
	}
	if s.Requests < 1 {
		return fmt.Errorf("requests must be ≥ 1 (got %d)", s.Requests)
	}
	return nil
}

// mixOrder returns the positively weighted endpoints in canonical order
// with their cumulative weights — the deterministic basis for weighted
// endpoint choice.
func (s Spec) mixOrder() (eps []string, cum []float64) {
	total := 0.0
	for _, ep := range Endpoints {
		if w := s.Mix[ep]; w > 0 {
			total += w
			eps = append(eps, ep)
			cum = append(cum, total)
		}
	}
	return eps, cum
}

// ParseMix parses a "distance=4,bounded=3,mutate=1" mix string.
func ParseMix(s string) (map[string]float64, error) {
	mix := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ep, ws, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix %q: want endpoint=weight", part)
		}
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix %q: bad weight", part)
		}
		mix[strings.TrimSpace(ep)] = w
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return mix, nil
}

// Snapshot is the request generator's view of the served corpus: the
// live stored tree IDs (distance/bounded/topk operands reference them)
// and their bracket serializations (the base material for ad-hoc
// operands and mutation payloads). Taken once before a run; the stream
// it seeds is immutable even while the run itself mutates the server.
type Snapshot struct {
	IDs   []int64
	Trees []string
}

// SnapshotOf captures a snapshot from an in-process corpus.
func SnapshotOf(c *corpus.Corpus) Snapshot {
	var s Snapshot
	for _, id := range c.IDs() {
		t, ok := c.Tree(id)
		if !ok {
			continue
		}
		s.IDs = append(s.IDs, int64(id))
		s.Trees = append(s.Trees, t.String())
	}
	return s
}

// FetchSnapshot captures a snapshot over HTTP: /v1/stats for the live
// tree count, then GET /v1/trees/{id} scanning upward from 0 (stored
// IDs are monotone from 0; deletions leave gaps, so the scan tolerates
// misses up to a budget before concluding the tail is empty). A 200 is
// a tree and a 404 a gap; any other status, such as a 503 from
// admission or a stale replica, fails the snapshot.
func FetchSnapshot(client *http.Client, base string) (Snapshot, error) {
	var stats server.StatsResponse
	switch status, err := getJSON(client, base+"/v1/stats", &stats); {
	case err != nil:
		return Snapshot{}, fmt.Errorf("fetch snapshot: stats: %w", err)
	case status != http.StatusOK:
		return Snapshot{}, fmt.Errorf("fetch snapshot: stats: status %d", status)
	}

	var s Snapshot
	misses := 0
	for id := int64(0); len(s.IDs) < stats.Trees && misses <= stats.Trees+64; id++ {
		var tr server.TreeResponse
		status, err := getJSON(client, fmt.Sprintf("%s/v1/trees/%d", base, id), &tr)
		switch {
		case err != nil:
			return Snapshot{}, fmt.Errorf("fetch snapshot: tree %d: %w", id, err)
		case status == http.StatusNotFound:
			misses++
			continue
		case status != http.StatusOK:
			return Snapshot{}, fmt.Errorf("fetch snapshot: tree %d: status %d", id, status)
		}
		s.IDs = append(s.IDs, tr.ID)
		s.Trees = append(s.Trees, tr.Tree)
	}
	if len(s.IDs) == 0 {
		return Snapshot{}, fmt.Errorf("fetch snapshot: no live trees found (stats reported %d)", stats.Trees)
	}
	return s, nil
}

// getJSON GETs url, decodes a 200 answer into v and returns the status.
func getJSON(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}
