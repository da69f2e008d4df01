// Package server is the HTTP serving layer over a corpus: it exposes
// the distance, bounded-distance, similarity-join and top-k machinery of
// the batch engine — and the corpus mutations, made durable by the
// write-ahead log — as a JSON API, with request admission control in
// front of the worker pool.
//
// The startup path is the one the corpus layer was built for: Open (or
// Load) the corpus, attach an engine with Corpus.Engine, Warm it so the
// first request pays for nothing but distance computations. The request
// path then runs entirely on prepared state: stored trees prepare once
// from their label ids, ad-hoc query trees are prepared per request
// (corpus.Corpus.PrepareQuery) and discarded.
//
// # API
//
//	POST   /v1/distance          {"f": T, "g": T}              → {"dist": d}
//	POST   /v1/distance-bounded  {"f": T, "g": T, "tau": τ}    → {"dist": d, "within": b}
//	POST   /v1/join              {"tau": τ, "mode": "auto",
//	                              "limit": n, "range": R}      → {"matches": [{"i","j","dist"}], ...}
//	POST   /v1/topk              {"query": T, "k": k,
//	                              "range": R}                  → {"matches": [{"tree","root","dist"}]}
//	POST   /v1/trees             {"tree": "{a{b}}"}            → {"id": id}       (201)
//	GET    /v1/trees/{id}                                      → {"id", "tree"}
//	PUT    /v1/trees/{id}        {"tree": "{a{c}}"}            → {"id": id}
//	DELETE /v1/trees/{id}                                      → 204
//	GET    /v1/stats                                           → corpus fingerprint, admission and
//	                                                             kernel counters
//	GET    /healthz                                            → 200 serving / 503 draining
//
// where T is a tree reference: {"id": n} names a stored tree, {"tree":
// "{a{b}{c}}"} carries an ad-hoc one in bracket notation, and the
// optional R = {"lo": a, "hi": b, "fingerprint": f} restricts a join or
// top-k to the stored trees at positions [a, b) in ascending ID order,
// of a corpus whose /v1/stats fingerprint is f (optional). Errors are
// {"error": "..."} with a meaningful status code (400 invalid request,
// 404 unknown id, 409 range pinned to another fingerprint, 413
// oversized body, 502 a gateway's workers failed or disagree, 503
// overloaded or draining).
//
// # Admission control
//
// Every /v1 request passes an admission gate before touching the
// engine: at most MaxInFlight requests are in flight, and an arrival
// beyond that waits up to QueueTimeout for a slot before being refused
// with 503 and a Retry-After header. The gate bounds the work queued
// onto the engine's worker pool — the pool itself never sees more
// concurrent batch calls than the gate admits, so distance latency
// under overload degrades by queueing at the front door with a bounded
// wait, not by collapsing the arenas' cache behavior. Per-request
// validation (τ and k ranges, tree size caps, body size caps) runs
// after admission and before any engine work.
//
// Draining (Server.Drain, wired to SIGTERM in cmd/tedd) flips the gate:
// new requests get 503, /healthz reports 503 so load balancers stop
// routing, and in-flight requests finish normally under
// http.Server.Shutdown.
//
// # Gateways
//
// A server built with WithClusterWorkers is a gateway: it answers a join
// or top-k without a range by dealing position ranges to worker servers
// that hold the same corpus, over this same API, and merging their
// answers into exactly the single-node one. A worker is any Server; a
// ranged request always runs on the local corpus. The gateway first
// reads every worker's /v1/stats at once, each probe and every dial
// bounded by 5 s. It skips workers that do not answer or are draining,
// and refuses (502) workers without a fingerprint or whose tree count
// or fingerprint differ. Each range carries the agreed fingerprint, and
// a worker whose corpus no longer has it answers 409, which fails the
// request with 502: a worker mutated after the probe cannot mix another
// corpus into the merge. Each range commits on a complete 200; a
// transport error or another 5xx retires that worker for the request
// and deals its range to another; a worker's 4xx goes back to the
// client, and its 503 too, with Retry-After. The client's request
// context carries every worker request, so a client that hangs up stops
// the workers too.
//
// # Durability
//
// Mutation handlers call Corpus.Sync before acknowledging, so a 2xx
// means the mutation reached the write-ahead log on stable storage —
// the crash-recovery contract of corpus.Open extends end to end to the
// API.
package server
