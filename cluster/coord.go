package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"repro/batch"
	"repro/corpus"
	"repro/internal/tree"
)

// Coordinator partitions join and top-k evaluations over a set of
// worker addresses. All workers must hold the same snapshot (verified
// by fingerprint before any work is dispatched). The position space is
// split into more ranges than workers so a fast worker picks up slack
// from a slow one, and a worker that dies mid-range loses only that
// range: its buffered partial results are dropped and the whole range
// is re-dispatched to a live worker, so the merged result has no lost
// and no duplicated matches.
type Coordinator struct {
	addrs []string
}

const (
	// rangesPerWorker oversizes the task queue for load balancing.
	rangesPerWorker = 4
	// dialTimeout bounds each connection attempt.
	dialTimeout = 5 * time.Second
)

// NewCoordinator returns a coordinator over the given worker addresses.
func NewCoordinator(addrs []string) *Coordinator {
	return &Coordinator{addrs: append([]string(nil), addrs...)}
}

// roundTrip runs one request against one worker and collects its data
// frames. It returns errWorkerRefused (wrapped) when the worker sent an
// "error" frame, and the transport error when the stream died before
// "done" — the caller treats the former as fatal and the latter as a
// dead worker.
func (co *Coordinator) roundTrip(addr string, req *Request) (frames []Frame, done Frame, err error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, Frame{}, err
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeMsg(bw, req); err != nil {
		return nil, Frame{}, err
	}
	if err := bw.Flush(); err != nil {
		return nil, Frame{}, err
	}
	br := bufio.NewReader(conn)
	for {
		var fr Frame
		if err := readMsg(br, &fr); err != nil {
			return nil, Frame{}, fmt.Errorf("cluster: worker %s died mid-range: %w", addr, err)
		}
		switch fr.Kind {
		case "done", "info":
			return frames, fr, nil
		case "error":
			return nil, Frame{}, fmt.Errorf("%w: %s: %s", errWorkerRefused, addr, fr.Err)
		default:
			frames = append(frames, fr)
		}
	}
}

// Info queries every worker's snapshot fingerprint and returns the
// agreed tree count. Workers that disagree — or can't be reached — are
// an error: partitioning positions across diverging snapshots would
// produce garbage quietly.
func (co *Coordinator) Info() (int, error) {
	if len(co.addrs) == 0 {
		return 0, errors.New("cluster: no workers")
	}
	var count int
	var sum uint64
	for i, addr := range co.addrs {
		_, fr, err := co.roundTrip(addr, &Request{Op: "info"})
		if err != nil {
			return 0, fmt.Errorf("cluster: worker %s: %w", addr, err)
		}
		if i == 0 {
			count, sum = fr.Count, fr.IDSum
		} else if fr.Count != count || fr.IDSum != sum {
			return 0, fmt.Errorf("cluster: worker %s holds a different snapshot (%d trees, fp %x; first worker has %d, %x)",
				addr, fr.Count, fr.IDSum, count, sum)
		}
	}
	return count, nil
}

// rangeTask is one position range awaiting evaluation.
type rangeTask struct{ idx, lo, hi int }

// runRanges splits [0, count) into tasks and fans them over the
// workers. Results commit per range on its "done" frame; a transport
// failure returns the range to the queue and retires the worker. It
// fails only when a worker refuses a request or no live workers remain
// with work outstanding.
func (co *Coordinator) runRanges(count int, mkReq func(lo, hi int) *Request) (frames [][]Frame, dones []Frame, err error) {
	nRanges := rangesPerWorker * len(co.addrs)
	if nRanges > count {
		nRanges = count
	}
	if nRanges == 0 {
		return nil, nil, nil
	}
	frames = make([][]Frame, nRanges)
	dones = make([]Frame, nRanges)

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		pending []rangeTask
		left    = nRanges
		fatal   error
	)
	for r := 0; r < nRanges; r++ {
		pending = append(pending, rangeTask{idx: r, lo: r * count / nRanges, hi: (r + 1) * count / nRanges})
	}

	var wg sync.WaitGroup
	for _, addr := range co.addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			for {
				mu.Lock()
				// An empty queue with uncommitted ranges means some range is
				// in flight elsewhere and may yet be requeued by a dying
				// worker — wait for it rather than retiring a live worker
				// the reassignment will need.
				for fatal == nil && left > 0 && len(pending) == 0 {
					cond.Wait()
				}
				if fatal != nil || left == 0 {
					mu.Unlock()
					return
				}
				t := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				mu.Unlock()

				fs, done, err := co.roundTrip(addr, mkReq(t.lo, t.hi))
				mu.Lock()
				switch {
				case err == nil:
					frames[t.idx], dones[t.idx] = fs, done
					left--
					cond.Broadcast()
				case errors.Is(err, errWorkerRefused):
					fatal = err
					pending = append(pending, t)
					cond.Broadcast()
				default:
					// Dead worker: requeue the range, wake a waiter to take
					// it over, retire this goroutine.
					pending = append(pending, t)
					cond.Broadcast()
					mu.Unlock()
					return
				}
				mu.Unlock()
			}
		}(addr)
	}
	wg.Wait()
	if fatal != nil {
		return nil, nil, fatal
	}
	if left > 0 {
		return nil, nil, fmt.Errorf("cluster: %d ranges unassigned — no live workers remain", left)
	}
	return frames, dones, nil
}

// Join runs the distributed similarity self-join: the exact match set
// (and per-match distances) of corpus.Join over the workers' shared
// snapshot, with JoinStats summed across ranges so counters stay
// truthful. Elapsed is the coordinator's wall time; IndexTime the
// largest per-range probe time.
func (co *Coordinator) Join(tau float64, opts batch.JoinOptions) ([]corpus.Match, batch.JoinStats, error) {
	start := time.Now()
	count, err := co.Info()
	if err != nil {
		return nil, batch.JoinStats{}, err
	}
	req := func(lo, hi int) *Request {
		r := &Request{Op: "join", Tau: tau, Mode: opts.Mode, Q: opts.Q, Lo: lo, Hi: hi}
		if math.IsInf(tau, 1) {
			r.Tau, r.TauInf = 0, true
		}
		return r
	}
	frames, dones, err := co.runRanges(count, req)
	if err != nil {
		return nil, batch.JoinStats{}, err
	}
	var ms []corpus.Match
	var st batch.JoinStats
	for i := range frames {
		for _, fr := range frames[i] {
			ms = append(ms, corpus.Match{I: corpus.ID(fr.I), J: corpus.ID(fr.J), Dist: fr.Dist})
		}
		if dones[i].JoinStats != nil {
			st.Merge(*dones[i].JoinStats)
		}
	}
	// Ranges partition the probe side (J), so pairs are disjoint across
	// ranges; sorting restores single-node (I, J) order.
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].I != ms[b].I {
			return ms[a].I < ms[b].I
		}
		return ms[a].J < ms[b].J
	})
	st.Elapsed = time.Since(start)
	return ms, st, nil
}

// TopK runs the distributed top-k query: each worker returns its
// range's local top k under the global (distance, tree, root) order,
// and the merge keeps the k best — exactly corpus.TopKAcross's answer,
// since a globally top-k subtree is top-k within its own range.
func (co *Coordinator) TopK(query *tree.Tree, k int) ([]corpus.CrossMatch, batch.Stats, error) {
	if k <= 0 {
		return nil, batch.Stats{}, errors.New("cluster: k must be positive")
	}
	count, err := co.Info()
	if err != nil {
		return nil, batch.Stats{}, err
	}
	qf := query.Postorder()
	frames, dones, err := co.runRanges(count, func(lo, hi int) *Request {
		return &Request{Op: "topk", K: k, Query: &qf, Lo: lo, Hi: hi}
	})
	if err != nil {
		return nil, batch.Stats{}, err
	}
	var ms []corpus.CrossMatch
	var st batch.Stats
	for i := range frames {
		for _, fr := range frames[i] {
			ms = append(ms, corpus.CrossMatch{Tree: corpus.ID(fr.Tree), Root: fr.Root, Dist: fr.Dist})
		}
		if dones[i].Stats != nil {
			st.Merge(*dones[i].Stats)
		}
	}
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].Dist != ms[b].Dist {
			return ms[a].Dist < ms[b].Dist
		}
		if ms[a].Tree != ms[b].Tree {
			return ms[a].Tree < ms[b].Tree
		}
		return ms[a].Root < ms[b].Root
	})
	if len(ms) > k {
		ms = ms[:k]
	}
	return ms, st, nil
}
