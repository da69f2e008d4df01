package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	ted "repro"
	"repro/batch"
	"repro/corpus"
	"repro/server"
)

// checker replays a seeded sample of a run's requests through the
// public functions of each layer — the same calls the server's handlers
// make — and compares every answer bit for bit with the response the
// server sent. With a tracer it records one span per call; either way it
// accumulates the layers' work counters.
type checker struct {
	c  *corpus.Corpus
	e  *batch.Engine
	tr *tracer

	problems []string
	work     work
	joins    map[float64][]corpus.Match // reference join per tau
}

// work holds the counters of the replayed calls. The counts repeat
// exactly at a fixed seed; the times are measured.
type work struct {
	engineCalls    int64
	engineTime     time.Duration
	subproblems    int64
	pruned         int64
	prunedKeyroots int64
	rowCells       int64
	compressedRows int64

	boundedReads   int64
	boundedSkipped int64 // answered with zero DP subproblems
	boundedCells   int64
	boundedNTau2   float64 // Σ max(|F|,|G|)·τ² over bounded reads

	strategyTimes []time.Duration // ted.Stats.StrategyTime per exact distance
	totalTime     time.Duration   // Σ ted.Stats.TotalTime over those

	joinCalls     int64
	candidates    int64
	matches       int64
	lowerPruned   int64
	upperAccepted int64
	exact         int64
	probeTimes    []time.Duration // JoinStats.IndexTime
	joinTimes     []time.Duration // JoinStats.Elapsed − IndexTime
}

func (k *checker) failf(format string, args ...any) {
	k.problems = append(k.problems, fmt.Sprintf(format, args...))
}

func (k *checker) ok() bool { return len(k.problems) == 0 }

// call times f as one span of the replayed request.
func (k *checker) call(name, req string, parent *span, f func() map[string]int64) {
	s := k.tr.begin(name, req, parent)
	attrs := f()
	k.tr.end(s, attrs)
}

func (k *checker) decode(body []byte, into any, req string, root *span) error {
	var err error
	k.call("json.decode", req, root, func() map[string]int64 {
		err = json.Unmarshal(body, into)
		return nil
	})
	return err
}

func (k *checker) encode(v any, req string, root *span) {
	k.call("json.encode", req, root, func() map[string]int64 {
		_, _ = json.Marshal(v) // the wire types always marshal
		return nil
	})
}

// resolve mirrors the server's TreeRef resolution: stored trees through
// corpus.Prepared, ad-hoc trees through ted.Parse and
// corpus.PrepareQuery.
func (k *checker) resolve(ref server.TreeRef, req string, root *span) (*batch.PreparedTree, error) {
	var p *batch.PreparedTree
	if ref.ID != nil {
		ok := false
		k.call("corpus.Prepared", req, root, func() map[string]int64 {
			p, ok = k.c.Prepared(k.e, corpus.ID(*ref.ID))
			return nil
		})
		if !ok {
			return nil, fmt.Errorf("no stored tree %d", *ref.ID)
		}
		return p, nil
	}
	var (
		t   *ted.Tree
		err error
	)
	k.call("ted.Parse", req, root, func() map[string]int64 {
		t, err = ted.Parse(strings.TrimSpace(ref.Tree))
		return nil
	})
	if err != nil {
		return nil, err
	}
	k.call("corpus.PrepareQuery", req, root, func() map[string]int64 {
		p = k.c.PrepareQuery(k.e, t)
		return nil
	})
	return p, nil
}

func tedAttrs(st ted.Stats) map[string]int64 {
	return map[string]int64{
		"subproblems":        st.Subproblems,
		"pruned_subproblems": st.PrunedSubproblems,
		"pruned_keyroots":    st.PrunedKeyroots,
		"row_cells":          st.RowCells,
		"compressed_rows":    st.CompressedRows,
		"strategy_ns":        int64(st.StrategyTime),
		"total_ns":           int64(st.TotalTime),
	}
}

func (w *work) addTed(st ted.Stats) {
	w.subproblems += st.Subproblems
	w.pruned += st.PrunedSubproblems
	w.prunedKeyroots += st.PrunedKeyroots
	w.rowCells += st.RowCells
	w.compressedRows += st.CompressedRows
}

func (w *work) addBatch(st batch.Stats) {
	w.subproblems += st.Subproblems
	w.pruned += st.PrunedSubproblems
	w.prunedKeyroots += st.PrunedKeyroots
	w.rowCells += st.RowCells
	w.compressedRows += st.CompressedRows
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// replay checks one sampled response against its request.
func (k *checker) replay(s *sample, r request) {
	req := "r" + strconv.Itoa(s.idx+1)
	root := k.tr.begin("replay."+r.ep.String(), req, nil)
	defer k.tr.end(root, nil)
	switch r.ep {
	case epDistance:
		k.distance(req, root, r, s)
	case epBounded:
		k.bounded(req, root, r, s)
	case epTopK, epTopKStream:
		k.topk(req, root, r, s)
	case epJoin, epJoinStream:
		k.join(req, root, r, s)
	}
}

func (k *checker) pair(req string, root *span, f, g server.TreeRef) (*batch.PreparedTree, *batch.PreparedTree, bool) {
	pf, err := k.resolve(f, req, root)
	if err != nil {
		k.failf("%s: f: %v", req, err)
		return nil, nil, false
	}
	pg, err := k.resolve(g, req, root)
	if err != nil {
		k.failf("%s: g: %v", req, err)
		return nil, nil, false
	}
	return pf, pg, true
}

func (k *checker) distance(req string, root *span, r request, s *sample) {
	var in server.DistanceRequest
	if err := k.decode(r.body, &in, req, root); err != nil {
		k.failf("%s: decode request: %v", req, err)
		return
	}
	f, g, ok := k.pair(req, root, in.F, in.G)
	if !ok {
		return
	}
	var d float64
	k.call("batch.Engine.Distance", req, root, func() map[string]int64 {
		start := time.Now()
		d = k.e.Distance(f, g)
		k.work.engineTime += time.Since(start)
		return nil
	})
	// ted.Distance is the library's RTED entry point: it agrees with the
	// engine and reports the strategy computation's share of the time.
	var st ted.Stats
	var d2 float64
	k.call("ted.Distance", req, root, func() map[string]int64 {
		d2 = ted.Distance(f.Tree(), g.Tree(), ted.WithStats(&st))
		return tedAttrs(st)
	})
	k.work.engineCalls++
	k.work.addTed(st)
	k.work.strategyTimes = append(k.work.strategyTimes, st.StrategyTime)
	k.work.totalTime += st.TotalTime
	k.encode(server.DistanceResponse{Dist: d}, req, root)

	if !sameFloat(d, d2) {
		k.failf("%s: engine distance %v, ted.Distance %v", req, d, d2)
	}
	var got server.DistanceResponse
	if err := json.Unmarshal(s.body, &got); err != nil {
		k.failf("%s: decode response %q: %v", req, s.body, err)
	} else if !sameFloat(got.Dist, d) {
		k.failf("%s: served distance %v, in-process %v", req, got.Dist, d)
	}
}

func (k *checker) bounded(req string, root *span, r request, s *sample) {
	var in server.DistanceBoundedRequest
	if err := k.decode(r.body, &in, req, root); err != nil {
		k.failf("%s: decode request: %v", req, err)
		return
	}
	f, g, ok := k.pair(req, root, in.F, in.G)
	if !ok {
		return
	}
	var (
		d      float64
		within bool
	)
	k.call("batch.Engine.DistanceBounded", req, root, func() map[string]int64 {
		start := time.Now()
		d, within = k.e.DistanceBounded(f, g, in.Tau)
		k.work.engineTime += time.Since(start)
		return nil
	})
	var st ted.Stats
	var (
		d2      float64
		within2 bool
	)
	k.call("ted.DistanceBounded", req, root, func() map[string]int64 {
		d2, within2 = ted.DistanceBounded(f.Tree(), g.Tree(), in.Tau, ted.WithStats(&st))
		return tedAttrs(st)
	})
	k.work.engineCalls++
	k.work.addTed(st)
	k.work.boundedReads++
	if st.Subproblems == 0 {
		k.work.boundedSkipped++
	}
	n := float64(max(f.Len(), g.Len()))
	k.work.boundedCells += st.RowCells
	k.work.boundedNTau2 += n * in.Tau * in.Tau
	k.encode(server.DistanceBoundedResponse{Dist: d, Within: within}, req, root)

	if within != within2 || (within && !sameFloat(d, d2)) {
		k.failf("%s: engine bounded (%v, %v), ted.DistanceBounded (%v, %v)", req, d, within, d2, within2)
	}
	var got server.DistanceBoundedResponse
	if err := json.Unmarshal(s.body, &got); err != nil {
		k.failf("%s: decode response %q: %v", req, s.body, err)
	} else if got.Within != within || !sameFloat(got.Dist, d) {
		k.failf("%s: served (%v, %v), in-process (%v, %v)", req, got.Dist, got.Within, d, within)
	}
}

func (k *checker) topk(req string, root *span, r request, s *sample) {
	var in server.TopKRequest
	if err := k.decode(r.body, &in, req, root); err != nil {
		k.failf("%s: decode request: %v", req, err)
		return
	}
	q, err := k.resolve(in.Query, req, root)
	if err != nil {
		k.failf("%s: query: %v", req, err)
		return
	}
	var (
		ms []corpus.CrossMatch
		st batch.Stats
	)
	k.call("corpus.TopKAcross", req, root, func() map[string]int64 {
		start := time.Now()
		ms, st = k.c.TopKAcross(k.e, q, in.K)
		k.work.engineTime += time.Since(start)
		return map[string]int64{
			"subproblems":        st.Subproblems,
			"pruned_subproblems": st.PrunedSubproblems,
			"pruned_keyroots":    st.PrunedKeyroots,
			"row_cells":          st.RowCells,
			"compressed_rows":    st.CompressedRows,
		}
	})
	k.work.engineCalls++
	k.work.addBatch(st)
	want := make([]server.TopKMatch, len(ms))
	for i, m := range ms {
		want[i] = server.TopKMatch{Tree: int64(m.Tree), Root: m.Root, Dist: m.Dist}
	}
	k.encode(server.TopKResponse{Matches: want}, req, root)

	var got []server.TopKMatch
	if r.ep == epTopK {
		var resp server.TopKResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			k.failf("%s: decode response: %v", req, err)
			return
		}
		got = resp.Matches
	} else {
		done := false
		err := eachLine(s.body, func(line []byte) error {
			var rec server.TopKStreamRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			switch {
			case done:
				return fmt.Errorf("record after done")
			case rec.Match != nil:
				got = append(got, *rec.Match)
			case rec.Done != nil:
				done = true
			}
			return nil
		})
		if err == nil && !done {
			err = fmt.Errorf("stream has no done record")
		}
		if err != nil {
			k.failf("%s: stream: %v", req, err)
			return
		}
	}
	if len(got) != len(want) {
		k.failf("%s: served %d matches, in-process %d", req, len(got), len(want))
		return
	}
	for i := range want {
		if got[i].Tree != want[i].Tree || got[i].Root != want[i].Root || !sameFloat(got[i].Dist, want[i].Dist) {
			k.failf("%s: match %d served %+v, in-process %+v", req, i, got[i], want[i])
			return
		}
	}
}

// reference returns corpus.Join's full match set at tau, computing it
// once per tau.
func (k *checker) reference(tau float64) []corpus.Match {
	if ms, ok := k.joins[tau]; ok {
		return ms
	}
	ms, _ := k.c.Join(k.e, tau, batch.JoinOptions{Mode: batch.IndexAuto})
	k.joins[tau] = ms
	return ms
}

func (w *work) addJoin(st batch.JoinStats, matches int) {
	w.engineCalls++
	w.engineTime += st.Elapsed - st.IndexTime
	w.subproblems += st.Subproblems
	w.pruned += st.PrunedSubproblems
	w.prunedKeyroots += st.PrunedKeyroots
	w.rowCells += st.RowCells
	w.compressedRows += st.CompressedRows
	w.joinCalls++
	w.candidates += int64(st.Comparisons)
	w.matches += int64(matches)
	w.lowerPruned += int64(st.LowerPruned)
	w.upperAccepted += int64(st.UpperAccepted)
	w.exact += int64(st.ExactComputed)
	w.probeTimes = append(w.probeTimes, st.IndexTime)
	w.joinTimes = append(w.joinTimes, st.Elapsed-st.IndexTime)
}

// join replays one sampled join request — corpus.Join as the handler
// calls it — and checks the response.
func (k *checker) join(req string, root *span, r request, s *sample) {
	var in server.JoinRequest
	if err := k.decode(r.body, &in, req, root); err != nil {
		k.failf("%s: decode request: %v", req, err)
		return
	}
	var (
		ms []corpus.Match
		st batch.JoinStats
	)
	// The workload sends mode "auto", which the server maps to
	// batch.IndexAuto.
	k.call("corpus.Join", req, root, func() map[string]int64 {
		ms, st = k.c.Join(k.e, in.Tau, batch.JoinOptions{Mode: batch.IndexAuto})
		return map[string]int64{
			"candidates":     int64(st.Comparisons),
			"lower_pruned":   int64(st.LowerPruned),
			"upper_accepted": int64(st.UpperAccepted),
			"exact_computed": int64(st.ExactComputed),
			"subproblems":    st.Subproblems,
			"row_cells":      st.RowCells,
			"index_ns":       int64(st.IndexTime),
		}
	})
	k.joins[in.Tau] = ms
	k.work.addJoin(st, len(ms))
	want, limit := joinWant(ms, in.Limit)
	k.encode(server.JoinResponse{Matches: want[:limit], Count: len(ms), Truncated: limit < len(ms)}, req, root)
	k.checkJoin(req, in, r.ep, s)
}

// joinResponse checks a join response that was not replayed against
// the reference join at its tau.
func (k *checker) joinResponse(req string, r request, s *sample) {
	var in server.JoinRequest
	if err := json.Unmarshal(r.body, &in); err != nil {
		k.failf("%s: decode request: %v", req, err)
		return
	}
	k.checkJoin(req, in, r.ep, s)
}

// joinWant is a match set in wire form and how many of its matches a
// response with the given limit lists.
func joinWant(ms []corpus.Match, reqLimit int) ([]server.JoinMatch, int) {
	want := make([]server.JoinMatch, len(ms))
	for i, m := range ms {
		want[i] = server.JoinMatch{I: int64(m.I), J: int64(m.J), Dist: m.Dist}
	}
	limit := len(ms)
	if reqLimit > 0 && reqLimit < limit {
		limit = reqLimit
	}
	return want, limit
}

// checkJoin compares a join response with corpus.Join's match set: the
// buffered form lists the first matches in (I, J) order; a stream lists
// them in completion order, so each must be in the reference set, none
// may repeat, and the done record must carry the count.
func (k *checker) checkJoin(req string, in server.JoinRequest, ep endpoint, s *sample) {
	ms := k.reference(in.Tau)
	want, limit := joinWant(ms, in.Limit)
	if ep == epJoin {
		var resp server.JoinResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			k.failf("%s: decode response: %v", req, err)
			return
		}
		if resp.Count != len(ms) || resp.Truncated != (limit < len(ms)) || len(resp.Matches) != limit {
			k.failf("%s: served count %d (%d listed, truncated %v), in-process %d (limit %d)",
				req, resp.Count, len(resp.Matches), resp.Truncated, len(ms), limit)
			return
		}
		for i := range resp.Matches {
			if !sameJoinMatch(resp.Matches[i], want[i]) {
				k.failf("%s: match %d served %+v, in-process %+v", req, i, resp.Matches[i], want[i])
				return
			}
		}
		return
	}
	byPair := make(map[[2]int64]server.JoinMatch, len(want))
	for _, m := range want {
		byPair[[2]int64{m.I, m.J}] = m
	}
	seen := make(map[[2]int64]bool)
	var done *server.JoinStreamDone
	err := eachLine(s.body, func(line []byte) error {
		var rec server.JoinStreamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		switch {
		case done != nil:
			return fmt.Errorf("record after done")
		case rec.Match != nil:
			key := [2]int64{rec.Match.I, rec.Match.J}
			if m, ok := byPair[key]; !ok || seen[key] || !sameJoinMatch(m, *rec.Match) {
				return fmt.Errorf("streamed match %+v is not in the in-process join, or repeats", *rec.Match)
			}
			seen[key] = true
		case rec.Done != nil:
			done = rec.Done
		}
		return nil
	})
	if err == nil && done == nil {
		err = fmt.Errorf("stream has no done record")
	}
	if err == nil && (done.Count != len(ms) || done.Truncated != (limit < len(ms)) || len(seen) != limit) {
		err = fmt.Errorf("done count %d (%d streamed, truncated %v), in-process %d (limit %d)", done.Count, len(seen), done.Truncated, len(ms), limit)
	}
	if err != nil {
		k.failf("%s: stream: %v", req, err)
	}
}

func sameJoinMatch(a, b server.JoinMatch) bool {
	return a.I == b.I && a.J == b.J && sameFloat(a.Dist, b.Dist)
}

func eachLine(body []byte, f func(line []byte) error) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), len(body)+1)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if err := f(sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// write applies one posted tree to k.c as the write handler does:
// decode, ted.Parse, corpus.Add, then corpus.Sync before acknowledging.
func (k *checker) write(req string, r request) {
	root := k.tr.begin("replay.write", req, nil)
	defer k.tr.end(root, nil)
	var in server.TreeRequest
	if err := k.decode(r.body, &in, req, root); err != nil {
		k.failf("%s: decode request: %v", req, err)
		return
	}
	var (
		t   *ted.Tree
		err error
	)
	k.call("ted.Parse", req, root, func() map[string]int64 {
		t, err = ted.Parse(strings.TrimSpace(in.Tree))
		return nil
	})
	if err != nil {
		k.failf("%s: parse: %v", req, err)
		return
	}
	var id corpus.ID
	k.call("corpus.Add", req, root, func() map[string]int64 {
		id = k.c.Add(t)
		return nil
	})
	k.call("corpus.Sync", req, root, func() map[string]int64 {
		err = k.c.Sync()
		return nil
	})
	if err != nil {
		k.failf("%s: sync: %v", req, err)
		return
	}
	k.encode(server.TreeResponse{ID: int64(id)}, req, root)
}

// checkAcks checks that every acknowledged write returns, from c, the
// exact tree that was posted.
func (k *checker) checkAcks(c *corpus.Corpus, acks map[int64]string) {
	ids := make([]int64, 0, len(acks))
	for id := range acks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		posted := acks[id]
		want, err := ted.Parse(posted)
		if err != nil {
			k.failf("write %d: posted tree does not parse: %v", id, err)
			return
		}
		got, ok := c.Tree(corpus.ID(id))
		if !ok {
			k.failf("write %d: acknowledged but missing after reopen", id)
			return
		}
		if got.String() != want.String() {
			k.failf("write %d: reopened tree %s, posted %s", id, got, want)
			return
		}
	}
}
