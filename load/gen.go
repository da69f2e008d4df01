package load

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/server"
)

// Request is one generated API call, fully materialized: the stream a
// Gen produces is a pure function of (Spec, Snapshot, Spec.Seed), so
// two generators with the same inputs emit byte-identical streams —
// runs are reproducible and a recorded stream can be replayed.
type Request struct {
	Endpoint string          `json:"endpoint"`
	Method   string          `json:"method"`
	Path     string          `json:"path"`
	Body     json.RawMessage `json:"body,omitempty"`
}

// MutationTag returns the root label of the n-th mutation tree of a
// seed's stream. The seed is embedded in the label, so streams with
// different seeds post trees with provably disjoint tag sets — workers
// or processes driving one server under different seeds cannot collide
// on generated content.
func MutationTag(seed int64, n int) string {
	return fmt.Sprintf("m%xx%d", uint64(seed), n)
}

// Gen deterministically generates a workload's request stream. Not safe
// for concurrent use; one Gen feeds a run (the runner fans its output
// out to workers, so the request multiset is independent of
// concurrency).
type Gen struct {
	spec Spec
	snap Snapshot
	rng  *rand.Rand
	eps  []string
	cum  []float64
	muts int // mutation sequence number → unique tags
}

// NewGen builds a generator; the spec must validate and the snapshot
// must be non-empty.
func NewGen(spec Spec, snap Snapshot) (*Gen, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(snap.IDs) == 0 || len(snap.IDs) != len(snap.Trees) {
		return nil, fmt.Errorf("gen: snapshot must pair ≥ 1 id with its tree (%d ids, %d trees)", len(snap.IDs), len(snap.Trees))
	}
	eps, cum := spec.mixOrder()
	return &Gen{
		spec: spec,
		snap: snap,
		rng:  rand.New(rand.NewSource(spec.Seed)),
		eps:  eps,
		cum:  cum,
	}, nil
}

// Next produces the next request of the stream.
func (g *Gen) Next() Request {
	// Endpoint choice: one uniform draw against the cumulative weights.
	r := g.rng.Float64() * g.cum[len(g.cum)-1]
	ep := g.eps[len(g.eps)-1]
	for i, c := range g.cum {
		if r < c {
			ep = g.eps[i]
			break
		}
	}
	switch ep {
	case EpDistance:
		return g.marshal(ep, "POST", "/v1/distance", server.DistanceRequest{
			F: g.storedRef(), G: g.eitherRef(),
		})
	case EpBounded:
		return g.marshal(ep, "POST", "/v1/distance-bounded", server.DistanceBoundedRequest{
			F: g.storedRef(), G: g.eitherRef(), Tau: g.spec.Tau,
		})
	case EpJoin, EpJoinStream:
		limit := g.spec.JoinLimit
		if limit <= 0 {
			limit = 64
		}
		path := "/v1/join"
		if ep == EpJoinStream {
			path = "/v1/join/stream"
		}
		return g.marshal(ep, "POST", path, server.JoinRequest{
			Tau: g.spec.Tau, Mode: g.spec.JoinMode, Limit: limit,
		})
	case EpTopK, EpTopKStream:
		path := "/v1/topk"
		if ep == EpTopKStream {
			path = "/v1/topk/stream"
		}
		return g.marshal(ep, "POST", path, server.TopKRequest{
			Query: server.TreeRef{Tree: g.tree()}, K: g.spec.K,
		})
	default: // EpMutate
		// A near-duplicate of a stored tree under a fresh root whose
		// label is unique to (seed, sequence): adds real index/WAL work
		// without colliding with any other stream's content.
		tag := MutationTag(g.spec.Seed, g.muts)
		g.muts++
		return g.marshal(ep, "POST", "/v1/trees", server.TreeRequest{
			Tree: "{" + tag + g.tree() + "}",
		})
	}
}

// Stream materializes the first n requests of the stream a fresh Gen
// would produce.
func Stream(spec Spec, snap Snapshot, n int) ([]Request, error) {
	g, err := NewGen(spec, snap)
	if err != nil {
		return nil, err
	}
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out, nil
}

func (g *Gen) marshal(ep, method, path string, body any) Request {
	raw, err := json.Marshal(body)
	if err != nil {
		// The wire structs marshal unconditionally; this is unreachable.
		panic(fmt.Sprintf("load: marshal %s request: %v", ep, err))
	}
	return Request{Endpoint: ep, Method: method, Path: path, Body: raw}
}

func (g *Gen) storedRef() server.TreeRef {
	id := g.snap.IDs[g.rng.Intn(len(g.snap.IDs))]
	return server.TreeRef{ID: &id}
}

// eitherRef yields a stored-id reference half the time and an ad-hoc
// tree the other half, so the mix exercises both resolution paths
// (stored trees prepared once and request-scoped preparation).
func (g *Gen) eitherRef() server.TreeRef {
	if g.rng.Intn(2) == 0 {
		return g.storedRef()
	}
	return server.TreeRef{Tree: g.tree()}
}

func (g *Gen) tree() string {
	return g.snap.Trees[g.rng.Intn(len(g.snap.Trees))]
}
