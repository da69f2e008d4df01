package cluster

import (
	"bufio"
	"errors"
	"hash/fnv"
	"math"
	"net"
	"strconv"
	"sync/atomic"

	"repro/batch"
	"repro/corpus"
	"repro/internal/tree"
)

// Worker serves join/top-k range evaluations over a corpus it holds —
// typically one Loaded from the same snapshot file every other worker
// and the coordinator agreed on. One request per connection; matches
// stream back as they are known, a "done" frame carries the range's
// stats, and the connection closes.
type Worker struct {
	c *corpus.Corpus
	e *batch.Engine

	count int
	idSum uint64

	ln net.Listener

	// Fault injection for tests: when failAfter > 0, the worker kills
	// itself — listener and live connection — once it has sent that many
	// data frames in total, simulating a crash mid-stream.
	failAfter atomic.Int64
	sent      atomic.Int64
}

// NewWorker wraps c for serving. Engine options are as for
// corpus.Engine — WithWorkers sizes the worker's local evaluation
// parallelism. The corpus is warmed so the first range pays no
// preparation cost.
func NewWorker(c *corpus.Corpus, opts ...batch.Option) *Worker {
	w := &Worker{c: c, e: c.Engine(opts...)}
	c.Warm(w.e)
	w.count, w.idSum = snapshotSignature(c)
	return w
}

// snapshotSignature fingerprints the corpus contents — IDs, shapes,
// and labels — so a coordinator can refuse to partition across workers
// holding different snapshots. An ID-only fingerprint would collide for
// any two corpora grown the same way, which is exactly the mistake
// (same path, different file) this check exists to catch.
func snapshotSignature(c *corpus.Corpus) (int, uint64) {
	ids := c.IDs()
	h := fnv.New64a()
	var b [10]byte
	uv := func(v uint64) {
		n := 0
		for v >= 0x80 {
			b[n] = byte(v) | 0x80
			v >>= 7
			n++
		}
		b[n] = byte(v)
		h.Write(b[:n+1])
	}
	for _, id := range ids {
		uv(uint64(id))
		t, ok := c.Tree(corpus.ID(id))
		if !ok {
			continue
		}
		n := t.Len()
		uv(uint64(n))
		for v := 0; v < n; v++ {
			lb := t.Label(v)
			uv(uint64(len(lb)))
			h.Write([]byte(lb))
			uv(uint64(t.NumChildren(v)))
		}
	}
	return len(ids), h.Sum64()
}

// FailAfterFrames arms the crash fault: the worker dies after sending n
// data frames. Zero disarms.
func (w *Worker) FailAfterFrames(n int64) { w.failAfter.Store(n) }

// Serve accepts connections on ln until it is closed.
func (w *Worker) Serve(ln net.Listener) error {
	w.ln = ln
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go w.handleConn(conn)
	}
}

// Close stops the listener; in-flight connections finish on their own.
func (w *Worker) Close() error {
	if w.ln != nil {
		return w.ln.Close()
	}
	return nil
}

// send writes one data frame, honouring the crash fault.
func (w *Worker) send(bw *bufio.Writer, conn net.Conn, fr *Frame) bool {
	if fa := w.failAfter.Load(); fa > 0 && w.sent.Add(1) >= fa {
		conn.Close()
		if w.ln != nil {
			w.ln.Close()
		}
		return false
	}
	return writeMsg(bw, fr) == nil
}

func (w *Worker) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var req Request
	if err := readMsg(br, &req); err != nil {
		return
	}
	switch req.Op {
	case "info":
		writeMsg(bw, &Frame{Kind: "info", Count: w.count, IDSum: w.idSum})
	case "join":
		w.handleJoin(bw, conn, &req)
	case "topk":
		w.handleTopK(bw, conn, &req)
	default:
		writeMsg(bw, &Frame{Kind: "error", Err: "unknown op " + strconv.Quote(req.Op)})
	}
	bw.Flush()
}

func (w *Worker) handleJoin(bw *bufio.Writer, conn net.Conn, req *Request) {
	tau := req.Tau
	if req.TauInf {
		tau = math.Inf(1)
	}
	ms, st := w.c.JoinRange(w.e, tau, batch.JoinOptions{Mode: req.Mode, Q: req.Q}, req.Lo, req.Hi)
	for i := range ms {
		fr := Frame{Kind: "match", I: int64(ms[i].I), J: int64(ms[i].J), Dist: ms[i].Dist}
		if !w.send(bw, conn, &fr) {
			return
		}
	}
	writeMsg(bw, &Frame{Kind: "done", JoinStats: &st})
}

func (w *Worker) handleTopK(bw *bufio.Writer, conn net.Conn, req *Request) {
	if req.Query == nil || req.K <= 0 {
		writeMsg(bw, &Frame{Kind: "error", Err: "topk needs a query tree and k > 0"})
		return
	}
	t, err := tree.FromPostorder(*req.Query)
	if err != nil {
		writeMsg(bw, &Frame{Kind: "error", Err: "bad query tree: " + err.Error()})
		return
	}
	q := w.c.PrepareQuery(w.e, t)
	ms, st := w.c.TopKRange(w.e, q, req.K, req.Lo, req.Hi)
	for i := range ms {
		fr := Frame{Kind: "cross", Tree: int64(ms[i].Tree), Root: ms[i].Root, Dist: ms[i].Dist}
		if !w.send(bw, conn, &fr) {
			return
		}
	}
	writeMsg(bw, &Frame{Kind: "done", Stats: &st})
}
