package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	ted "repro"
	"repro/gen"
	"repro/server"
)

// endpoint names one HTTP API call the workloads make.
type endpoint int

const (
	epDistance endpoint = iota
	epBounded
	epTopK
	epTopKStream
	epJoin
	epJoinStream
	epWrite
	numEndpoints
)

var endpoints = [numEndpoints]struct{ name, path string }{
	epDistance:   {"distance", "/v1/distance"},
	epBounded:    {"bounded", "/v1/distance-bounded"},
	epTopK:       {"topk", "/v1/topk"},
	epTopKStream: {"topk_stream", "/v1/topk/stream"},
	epJoin:       {"join", "/v1/join"},
	epJoinStream: {"join_stream", "/v1/join/stream"},
	epWrite:      {"write", "/v1/trees"},
}

func (e endpoint) String() string { return endpoints[e].name }

// request is one fully materialized API call: its endpoint and its JSON
// body, built from the server's wire types.
type request struct {
	ep   endpoint
	body []byte
}

func newRequest(ep endpoint, v any) request {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal %s request: %v", ep, err)) // wire types always marshal
	}
	return request{ep: ep, body: b}
}

// step is one offered rate of an open-loop schedule, over [from, to) of
// the window.
type step struct {
	rate     float64
	from, to time.Duration
}

// plan is everything one run of a workload needs: the stored corpus and
// the request streams. An open-loop plan gives every request the time it
// is due (offset from the window's start); a closed-loop plan has no due
// times and its clients walk reqs cyclically until the window closes.
type plan struct {
	trees []*ted.Tree // stored in ID order

	reqs  []request
	due   []time.Duration
	steps []step

	warm    []request
	warmDue []time.Duration

	// headline selects the requests the latency metrics describe.
	headline func(idx int) bool
}

// workload is one traffic mix over one corpus.
type workload struct {
	name string
	open bool // open loop (seeded Poisson arrivals) rather than 2 closed-loop clients
	plan func(seed int64, scale float64, window, warmup time.Duration) *plan
}

var workloads = []workload{
	{"point", true, pointPlan},
	{"topk", false, topkPlan},
	{"join", false, joinPlan},
	{"ingest", true, ingestPlan},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The point workload offers four rates. Its window is cut into
// segments that cycle through them in ascending order, so each rate is
// measured across the whole window rather than in one stretch: on a
// small shared machine the CPU slows down in bursts of tens to hundreds
// of milliseconds, and a rate measured in one stretch would depend on
// whether a burst hit it. The headline latency is the 1200 rps
// segments'.
var pointRates = []float64{600, 1200, 1800, 2400}

const (
	pointSegment      = 250 * time.Millisecond
	pointHeadlineRate = 1200
	boundedTau        = 10
	ingestRate        = 800
	topkK             = 5
	joinLimit         = 64
)

// joinTaus are the thresholds join requests cycle through, one per
// request. They cycle per request rather than per seed so runs with
// different seeds stay comparable.
var joinTaus = []float64{2, 3, 4}

// rngFor derives an independent generator for one purpose of one run.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

func scaled(n int, scale float64, min int) int {
	if m := int(float64(n) * scale); m > min {
		return m
	}
	return min
}

// mixedTree draws one stored tree: TreeBank-like (deep, narrow),
// SwissProt-like (flat, wide) and random shapes in equal shares, 20–60
// nodes — the shapes RTED's strategy choice is sensitive to, at sizes
// where one exact distance costs 0.1–0.5 ms.
func mixedTree(rng *rand.Rand) *ted.Tree {
	size := 20 + rng.Intn(41)
	s := rng.Int63()
	switch rng.Intn(3) {
	case 0:
		return gen.TreeBankLike(s, size)
	case 1:
		return gen.SwissProtLike(s, size)
	}
	return gen.Random(s, gen.RandomSpec{Size: size, MaxDepth: 15, MaxFanout: 6, Labels: 20})
}

func mixedCorpus(rng *rand.Rand, n int) []*ted.Tree {
	ts := make([]*ted.Tree, n)
	for i := range ts {
		ts[i] = mixedTree(rng)
	}
	return ts
}

func storedRef(id int) server.TreeRef {
	v := int64(id)
	return server.TreeRef{ID: &v}
}

// pointRead draws one point lookup: F is a stored tree; G is either
// another stored tree or an ad-hoc copy of F with two renames, 1:1. A
// stored G is mostly rejected by the lower bounds of a bounded read; an
// ad-hoc G runs the DP.
func pointRead(rng *rand.Rand, trees []*ted.Tree, ep endpoint) request {
	f := rng.Intn(len(trees))
	g := storedRef(rng.Intn(len(trees)))
	if rng.Intn(2) == 0 {
		g = server.TreeRef{Tree: gen.RenameSome(trees[f], 2, rng.Int63()).String()}
	}
	if ep == epDistance {
		return newRequest(ep, server.DistanceRequest{F: storedRef(f), G: g})
	}
	return newRequest(ep, server.DistanceBoundedRequest{F: storedRef(f), G: g, Tau: boundedTau})
}

// poisson lays seeded Poisson arrivals over the steps and draws one
// request per arrival.
func poisson(rng *rand.Rand, steps []step, next func(rng *rand.Rand) request) ([]time.Duration, []request) {
	var (
		due  []time.Duration
		reqs []request
	)
	for _, st := range steps {
		t := float64(st.from)
		for {
			t += rng.ExpFloat64() / st.rate * float64(time.Second)
			if t >= float64(st.to) {
				break
			}
			due = append(due, time.Duration(t))
			reqs = append(reqs, next(rng))
		}
	}
	return due, reqs
}

func pointPlan(seed int64, scale float64, window, warmup time.Duration) *plan {
	p := &plan{trees: mixedCorpus(rngFor(seed, 1), scaled(5000, scale, 200))}
	next := func(rng *rand.Rand) request {
		if rng.Intn(2) == 0 {
			return pointRead(rng, p.trees, epDistance)
		}
		return pointRead(rng, p.trees, epBounded)
	}
	for i := 0; time.Duration(i+1)*pointSegment <= window; i++ {
		from := time.Duration(i) * pointSegment
		p.steps = append(p.steps, step{rate: pointRates[i%len(pointRates)], from: from, to: from + pointSegment})
	}
	p.due, p.reqs = poisson(rngFor(seed, 2), p.steps, next)
	p.warmDue, p.warm = poisson(rngFor(seed, 3), []step{{rate: pointHeadlineRate, to: warmup}}, next)
	p.headline = func(i int) bool { return p.rateAt(p.due[i]) == pointHeadlineRate }
	return p
}

// rateAt is the rate of the step that holds offset t.
func (p *plan) rateAt(t time.Duration) float64 {
	for _, st := range p.steps {
		if t >= st.from && t < st.to {
			return st.rate
		}
	}
	return 0
}

func topkPlan(seed int64, scale float64, window, warmup time.Duration) *plan {
	p := &plan{trees: mixedCorpus(rngFor(seed, 1), scaled(150, scale, 20))}
	rng := rngFor(seed, 2)
	for i := 0; i < 256; i++ {
		q := gen.RenameSome(p.trees[rng.Intn(len(p.trees))], 2, rng.Int63()).String()
		ep := epTopK
		if i%2 == 1 {
			ep = epTopKStream
		}
		p.reqs = append(p.reqs, newRequest(ep, server.TopKRequest{Query: server.TreeRef{Tree: q}, K: topkK}))
	}
	p.warm = p.reqs
	p.headline = func(int) bool { return true }
	return p
}

func joinPlan(seed int64, scale float64, window, warmup time.Duration) *plan {
	rng := rngFor(seed, 1)
	bases := scaled(1000, scale, 30) / 3
	p := &plan{}
	for b := 0; b < bases; b++ {
		t := mixedTree(rng)
		p.trees = append(p.trees, t,
			gen.RenameSome(t, 1+rng.Intn(2), rng.Int63()),
			gen.RenameSome(t, 1+rng.Intn(2), rng.Int63()))
	}
	for i := 0; i < 2*len(joinTaus); i++ {
		ep := epJoin
		if i%2 == 1 {
			ep = epJoinStream
		}
		p.reqs = append(p.reqs, newRequest(ep, server.JoinRequest{Tau: joinTaus[i/2], Mode: "auto", Limit: joinLimit}))
	}
	p.warm = p.reqs
	p.headline = func(int) bool { return true }
	return p
}

// writeTag is the root label of the n-th tree a seed's ingest run
// posts: unique to the seed, so runs never collide on content.
func writeTag(seed int64, n int) string {
	return fmt.Sprintf("w%xx%d", uint64(seed), n)
}

func ingestPlan(seed int64, scale float64, window, warmup time.Duration) *plan {
	p := &plan{trees: mixedCorpus(rngFor(seed, 1), scaled(5000, scale, 200))}
	writes := 0
	next := func(rng *rand.Rand) request {
		if rng.Intn(4) > 0 {
			return pointRead(rng, p.trees, epBounded)
		}
		dup := gen.RenameSome(p.trees[rng.Intn(len(p.trees))], 2, rng.Int63()).String()
		writes++
		return newRequest(epWrite, server.TreeRequest{Tree: "{" + writeTag(seed, writes) + dup + "}"})
	}
	p.steps = []step{{rate: ingestRate, to: window}}
	p.due, p.reqs = poisson(rngFor(seed, 2), p.steps, next)
	p.warmDue, p.warm = poisson(rngFor(seed, 3), []step{{rate: ingestRate, to: warmup}}, next)
	p.headline = func(i int) bool { return p.reqs[i].ep == epBounded }
	return p
}
