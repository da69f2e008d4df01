package load

import (
	"encoding/json"
	"strings"
	"testing"
)

func testSnapshot() Snapshot {
	return Snapshot{
		IDs:   []int64{0, 2, 5},
		Trees: []string{"{a{b}{c}}", "{a{b{d}}{c}}", "{x{y}{z{w}}}"},
	}
}

func fullMixSpec(seed int64) Spec {
	return Spec{
		Mix: map[string]float64{
			EpDistance: 4, EpBounded: 3, EpJoin: 0.5, EpTopK: 2, EpMutate: 1,
		},
		Tau: 3, K: 2, Seed: seed, Conc: 4, Requests: 100,
	}
}

// TestGenDeterministic: the request stream is a pure function of
// (spec, snapshot) — two generations are byte-identical.
func TestGenDeterministic(t *testing.T) {
	spec, snap := fullMixSpec(42), testSnapshot()
	a, err := Stream(spec, snap, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(spec, snap, 500)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if string(ab) != string(bb) {
		t.Fatal("same seed + spec generated different request streams")
	}

	// And Stream is just NewGen + Next — the incremental path the runner
	// uses produces the same stream.
	g, err := NewGen(spec, snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range a {
		got := g.Next()
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("request %d: Gen.Next diverges from Stream", i)
		}
	}
}

// mutationTags extracts the root labels of the stream's mutation
// payloads. A mutate body is {"tree": "{TAG{...}}"} — the tag runs from
// the opening brace to the wrapped subtree's brace.
func mutationTags(t *testing.T, reqs []Request) []string {
	t.Helper()
	var tags []string
	for _, r := range reqs {
		if r.Endpoint != EpMutate {
			continue
		}
		var body struct {
			Tree string `json:"tree"`
		}
		if err := json.Unmarshal(r.Body, &body); err != nil {
			t.Fatalf("mutate body: %v", err)
		}
		rest := body.Tree[1:]
		cut := strings.IndexByte(rest, '{')
		if cut < 1 {
			t.Fatalf("mutate tree %q has no tagged root", body.Tree)
		}
		tags = append(tags, rest[:cut])
	}
	return tags
}

// TestGenSeedsDisjoint: different seeds produce different streams, and
// — the property multi-process harnesses rely on — mutation tag sets
// that cannot collide.
func TestGenSeedsDisjoint(t *testing.T) {
	snap := testSnapshot()
	a, err := Stream(fullMixSpec(1), snap, 800)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(fullMixSpec(2), snap, 800)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if string(ab) == string(bb) {
		t.Fatal("different seeds generated identical streams")
	}

	ta, tb := mutationTags(t, a), mutationTags(t, b)
	if len(ta) == 0 || len(tb) == 0 {
		t.Fatalf("expected mutations in both streams (got %d, %d)", len(ta), len(tb))
	}
	// Tags follow the published sequence...
	for i, tag := range ta {
		if want := MutationTag(1, i); tag != want {
			t.Fatalf("stream-1 mutation %d tagged %q, want %q", i, tag, want)
		}
	}
	// ...and the two seeds' tag universes are disjoint.
	seen := map[string]bool{}
	for _, tag := range ta {
		seen[tag] = true
	}
	for _, tag := range tb {
		if seen[tag] {
			t.Fatalf("mutation tag %q generated by both seeds", tag)
		}
	}
}

// TestGenHonorsMix: zero-weight endpoints never appear; positive
// weights are realized within sampling tolerance.
func TestGenHonorsMix(t *testing.T) {
	spec := fullMixSpec(7)
	spec.Mix = map[string]float64{EpDistance: 3, EpMutate: 1}
	reqs, err := Stream(spec, testSnapshot(), 8000)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.Endpoint]++
	}
	if len(counts) != 2 {
		t.Fatalf("endpoints generated: %v, want distance and mutate only", counts)
	}
	frac := float64(counts[EpDistance]) / float64(len(reqs))
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("distance fraction %.3f, want ≈ 0.75", frac)
	}
}

// TestGenRequestShape: every generated request carries a valid method,
// a known path, and a decodable JSON body.
func TestGenRequestShape(t *testing.T) {
	reqs, err := Stream(fullMixSpec(3), testSnapshot(), 300)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]string{
		EpDistance: "/v1/distance", EpBounded: "/v1/distance-bounded",
		EpJoin: "/v1/join", EpTopK: "/v1/topk", EpMutate: "/v1/trees",
	}
	for i, r := range reqs {
		if r.Method != "POST" || r.Path != paths[r.Endpoint] {
			t.Fatalf("request %d: %s %s for endpoint %s", i, r.Method, r.Path, r.Endpoint)
		}
		var any map[string]any
		if err := json.Unmarshal(r.Body, &any); err != nil {
			t.Fatalf("request %d: body does not decode: %v", i, err)
		}
	}
}

// TestSpecValidate rejects the malformed corners.
func TestSpecValidate(t *testing.T) {
	base := fullMixSpec(1)
	bad := []func(*Spec){
		func(s *Spec) { s.Mix = map[string]float64{"nonsense": 1} },
		func(s *Spec) { s.Mix = map[string]float64{EpDistance: 0} },
		func(s *Spec) { s.Tau = -1 },
		func(s *Spec) { s.K = 0 }, // topk weighted in base mix
		func(s *Spec) { s.Conc = 0 },
		func(s *Spec) { s.Requests = 0 },
	}
	for i, mutate := range bad {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base spec rejected: %v", err)
	}
}

// TestParseMix round-trips the CLI mix syntax.
func TestParseMix(t *testing.T) {
	mix, err := ParseMix("distance=4, bounded=3,mutate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if mix[EpDistance] != 4 || mix[EpBounded] != 3 || mix[EpMutate] != 0.5 {
		t.Fatalf("parsed %v", mix)
	}
	for _, bad := range []string{"", "distance", "distance=x", "distance=-1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}
