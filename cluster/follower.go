// Package cluster replicates a corpus across processes: a Follower
// tails a primary tedd's write-ahead log over HTTP and converges to a
// byte-identical store, so tedd -follow can serve reads as a replica.
// (Spreading one join or top-k query over processes needs no package of
// its own: a gateway server deals position ranges to worker servers over
// the HTTP API; see server.WithClusterWorkers.)
package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/corpus"
)

// Follower replicates a primary tedd's corpus: it tails the primary's
// write-ahead log over HTTP (GET /v1/wal, chunked frames in the log's
// on-disk framing), applies each record with the log's idempotent
// set-semantics replay, and persists the identical bytes in its own
// local log — so the follower's store converges byte-identically and
// survives its own restarts. When the primary has truncated past the
// follower's position (a checkpoint the follower never saw, or a fresh
// follower with no position at all), the follower ships a checkpoint:
// it fetches the primary's snapshot bytes (GET /v1/checkpoint), swaps
// its local corpus for them, and resumes tailing from the position the
// snapshot captured.
//
// The current corpus is behind an atomic pointer — a checkpoint ship
// replaces it — so serving code must re-read Corpus() per request (or
// hook OnSwap) rather than caching the pointer.
type Follower struct {
	primary string
	path    string
	opts    []corpus.Option
	client  *http.Client

	cur atomic.Pointer[corpus.Corpus]

	// OnSwap, if set, runs after a checkpoint ship replaces the corpus,
	// with the retired and the new corpus. The retired one is already
	// Closed.
	OnSwap func(old, new *corpus.Corpus)

	// PollWait is the long-poll window asked of the primary per stream
	// (default 20s).
	PollWait time.Duration

	mu         sync.Mutex
	pos        corpus.ReplPos // primary position applied through
	primarySeq int            // primary's latest announced position in pos.Gen
	lastFresh  time.Time      // last moment we knew we were fully caught up
	records    int64
	ships      int64
	lastErr    error
}

// FollowerStats is a point-in-time view of replication progress: the
// primary followed, the log position applied through, the primary's
// last announced position and the lag between them. StalenessMS is
// Staleness in milliseconds, the quantity a replica's max-staleness
// read guard bounds; it is nil (and absent from the JSON) until the
// follower's first successful contact, because a follower that was never
// fresh has no age to report. A replica's /v1/stats serves it as its
// "replication" object.
type FollowerStats struct {
	Primary     string `json:"primary"`
	Gen         string `json:"gen"`
	AppliedSeq  int    `json:"applied_seq"`
	PrimarySeq  int    `json:"primary_seq"`
	Lag         int    `json:"lag"`
	Records     int64  `json:"records"`
	Ships       int64  `json:"checkpoint_ships"`
	StalenessMS *int64 `json:"staleness_ms,omitempty"`
	LastErr     string `json:"last_err,omitempty"`
}

// errNeedShip marks a 409 from /v1/wal: our position is gone and only a
// checkpoint ship can resync.
var errNeedShip = errors.New("cluster: follower position truncated away")

// NewFollower opens (or creates) the local corpus at path and prepares
// to follow the primary at primaryURL (e.g. "http://127.0.0.1:7301").
// Options are corpus.Open options for the local store. The follower
// serves whatever the local snapshot holds from the first moment;
// convergence starts when Run does. A follower always begins with a
// checkpoint ship — it keeps no durable record of its primary position,
// and guessing one risks silent divergence.
func NewFollower(path, primaryURL string, opts ...corpus.Option) (*Follower, error) {
	c, err := corpus.Open(path, opts...)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		primary: primaryURL,
		path:    path,
		opts:    opts,
		client:  &http.Client{},
	}
	f.cur.Store(c)
	return f, nil
}

// Corpus returns the follower's current corpus. Re-read per use: a
// checkpoint ship replaces it.
func (f *Follower) Corpus() *corpus.Corpus { return f.cur.Load() }

// Stats snapshots replication progress.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	lag := f.primarySeq - f.pos.Seq
	if lag < 0 {
		lag = 0
	}
	st := FollowerStats{
		Primary:    f.primary,
		Gen:        f.pos.Gen,
		AppliedSeq: f.pos.Seq,
		PrimarySeq: f.primarySeq,
		Lag:        lag,
		Records:    f.records,
		Ships:      f.ships,
	}
	if !f.lastFresh.IsZero() {
		ms := time.Since(f.lastFresh).Milliseconds()
		st.StalenessMS = &ms
	}
	if f.lastErr != nil {
		st.LastErr = f.lastErr.Error()
	}
	return st
}

// Staleness reports how long ago the follower last knew it was fully
// caught up with the primary. Before the first successful contact it is
// effectively infinite. Read guards compare this against a bound.
func (f *Follower) Staleness() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lastFresh.IsZero() {
		return time.Duration(1<<63 - 1)
	}
	return time.Since(f.lastFresh)
}

// Run tails the primary until ctx is done, shipping checkpoints and
// backing off on transport errors as needed. It returns ctx.Err() on
// cancellation; any other return is a permanent local failure (the
// local store refused to apply or the disk is broken).
func (f *Follower) Run(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		err := f.streamOnce(ctx)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case err == nil:
			backoff = 100 * time.Millisecond
			continue // clean stream end: reconnect immediately
		case errors.Is(err, errNeedShip):
			if serr := f.ship(ctx); serr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				f.noteErr(serr)
			} else {
				backoff = 100 * time.Millisecond
				continue
			}
		default:
			f.noteErr(err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

func (f *Follower) noteErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// streamOnce opens one /v1/wal stream at the current position and
// applies frames until the stream ends. A clean end (the primary closed
// at a frame boundary — poll window over, or generation rotated)
// returns nil; errNeedShip reports a 409.
func (f *Follower) streamOnce(ctx context.Context) error {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	if pos.Gen == "" {
		return errNeedShip // never synced: only a ship can establish a position
	}

	wait := f.PollWait
	if wait <= 0 {
		wait = 20 * time.Second
	}
	q := url.Values{
		"gen":  {pos.Gen},
		"from": {strconv.Itoa(pos.Seq)},
		"wait": {wait.String()},
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/wal?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return errNeedShip
	default:
		return fmt.Errorf("cluster: primary /v1/wal: %s", resp.Status)
	}
	// The server may have mapped our position across a generation
	// rotation we were exactly caught up over; adopt its view.
	gen := resp.Header.Get("X-Ted-Wal-Gen")
	if gen == "" {
		gen = pos.Gen
	}
	seq := pos.Seq
	if s := resp.Header.Get("X-Ted-Wal-Seq"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			seq = v
		}
	}
	f.mu.Lock()
	if f.pos.Gen != gen {
		f.primarySeq = seq // new generation: old high-water mark is meaningless
	}
	pos = corpus.ReplPos{Gen: gen, Seq: seq}
	f.pos = pos
	f.mu.Unlock()

	br := bufio.NewReader(resp.Body)
	for {
		body, err := corpus.ReadWALFrame(br)
		if err == io.EOF {
			return nil // clean close at a frame boundary
		}
		if err != nil {
			// Torn mid-frame or checksum mismatch: the partial frame is
			// discarded unapplied; reconnect from the last applied
			// position.
			return err
		}
		if seq, ok := corpus.DecodeProgress(body); ok {
			f.mu.Lock()
			f.primarySeq = seq
			if f.pos.Seq >= seq {
				f.lastFresh = time.Now()
			}
			f.mu.Unlock()
			continue
		}
		if err := f.Corpus().ApplyReplicated(body); err != nil {
			return fmt.Errorf("cluster: apply replicated record at %s/%d: %w", pos.Gen, pos.Seq, err)
		}
		pos.Seq++
		f.mu.Lock()
		f.pos = pos
		f.records++
		if pos.Seq >= f.primarySeq {
			f.primarySeq = pos.Seq
			f.lastFresh = time.Now()
		}
		f.mu.Unlock()
	}
}

// ship fetches the primary's snapshot and replaces the local corpus
// with it: close the old store (releasing its log lock), replace the
// local snapshot atomically, drop the now-meaningless local log, and
// reopen. The new corpus's position is the one the snapshot captured.
func (f *Follower) ship(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/checkpoint", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: primary /v1/checkpoint: %s", resp.Status)
	}
	gen := resp.Header.Get("X-Ted-Wal-Gen")
	seq, err := strconv.Atoi(resp.Header.Get("X-Ted-Wal-Seq"))
	if gen == "" || err != nil {
		return errors.New("cluster: /v1/checkpoint response lacks position headers")
	}
	snap, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}

	old := f.cur.Load()
	if err := old.Close(); err != nil {
		// The old log is being discarded wholesale; a sync failure on it
		// must not block resync.
		f.noteErr(err)
	}
	if err := corpus.WriteFileAtomic(f.path, snap); err != nil {
		return err
	}
	// The local log describes the retired store; replaying it over the
	// shipped snapshot would corrupt. Remove before reopening.
	if err := os.Remove(f.path + ".wal"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	c, err := corpus.Open(f.path, f.opts...)
	if err != nil {
		return err
	}
	f.cur.Store(c)
	f.mu.Lock()
	f.pos = corpus.ReplPos{Gen: gen, Seq: seq}
	f.primarySeq = seq
	f.ships++
	f.lastFresh = time.Now()
	f.lastErr = nil
	f.mu.Unlock()
	if f.OnSwap != nil {
		f.OnSwap(old, c)
	}
	return nil
}
