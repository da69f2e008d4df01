// Package cluster distributes the corpus read path over processes: a
// coordinator partitions a similarity join or top-k query into position
// ranges over a shared snapshot, fans the ranges out to worker
// processes (each of which Loads the same snapshot file and evaluates
// its ranges with corpus.JoinRange / corpus.TopKRange), and merges the
// streamed results into exactly the single-node answer. It also
// implements the replication follower: a corpus that tails a primary's
// write-ahead log over HTTP and converges to a byte-identical store
// (see Follower).
//
// The worker protocol is deliberately small: one request per TCP
// connection, every message framed as uvarint(length) | JSON. The
// worker answers a request with a stream of data frames (one per
// match) and a terminal "done" frame carrying its evaluation stats, so
// the coordinator can commit a range's results atomically — a
// connection that dies before "done" contributes nothing, and the
// coordinator re-dispatches the whole range to another worker, which
// is what makes worker failure lossless and duplicate-free.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/batch"
	"repro/internal/tree"
)

// Request is the single message a coordinator sends on a worker
// connection.
type Request struct {
	Op string `json:"op"` // "info", "join", "topk"

	// Join. Tau is the threshold; TauInf marks an unbounded join (JSON
	// cannot carry +Inf). Mode/Q mirror batch.JoinOptions.
	Tau    float64         `json:"tau,omitempty"`
	TauInf bool            `json:"tauInf,omitempty"`
	Mode   batch.IndexMode `json:"mode,omitempty"`
	Q      int             `json:"q,omitempty"`

	// TopK. Query is the query tree in the corpus codec's postorder
	// form.
	K     int                 `json:"k,omitempty"`
	Query *tree.PostorderForm `json:"query,omitempty"`

	// The snapshot position range to evaluate, [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Frame is one message of a worker's response stream.
type Frame struct {
	Kind string `json:"kind"` // "info", "match", "cross", "done", "error"

	// info: the worker's view of the snapshot, so the coordinator can
	// verify all workers loaded the same one before partitioning.
	Count int    `json:"count,omitempty"`
	IDSum uint64 `json:"idSum,omitempty"`

	// match (join): one matching pair, corpus IDs.
	I    int64   `json:"i,omitempty"`
	J    int64   `json:"j,omitempty"`
	Dist float64 `json:"dist,omitempty"`

	// cross (topk): one candidate subtree, corpus ID + postorder root.
	Tree int64 `json:"tree,omitempty"`
	Root int   `json:"root,omitempty"`

	// done: per-range evaluation stats. The kernel counters inside
	// travel under their JSON names (gted.Counters) and the other fields
	// under their Go names, so the coordinator and the workers must run
	// the same build.
	JoinStats *batch.JoinStats `json:"joinStats,omitempty"`
	Stats     *batch.Stats     `json:"stats,omitempty"`

	// error: the worker evaluated and refused (bad request, wrong
	// snapshot); the coordinator aborts rather than retries.
	Err string `json:"err,omitempty"`
}

// maxWireMsg bounds a framed message's claimed length before
// allocation. Messages are one JSON object each; nothing legal
// approaches this.
const maxWireMsg = 1 << 24

// writeMsg frames and writes one message. The caller flushes.
func writeMsg(bw *bufio.Writer, v any) error {
	p, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var lead [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lead[:], uint64(len(p)))
	if _, err := bw.Write(lead[:n]); err != nil {
		return err
	}
	_, err = bw.Write(p)
	return err
}

// readMsg reads one framed message into v. A cleanly closed stream at a
// message boundary returns io.EOF; a message cut anywhere else returns
// io.ErrUnexpectedEOF.
func readMsg(br *bufio.Reader, v any) error {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	if n > maxWireMsg {
		return fmt.Errorf("cluster: message claims %d bytes", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(br, p); err != nil {
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(p, v)
}

// errWorkerRefused wraps an "error" frame: the worker is alive and
// rejected the request, so retrying elsewhere cannot help.
var errWorkerRefused = errors.New("cluster: worker refused request")
