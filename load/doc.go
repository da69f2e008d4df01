// Package load drives a mixed workload at the package server JSON API
// and counts every answer as ok, shed or error. It is a correctness
// gate, not a benchmark: latency and throughput are measured by the
// benchmark module (benchmark/, BENCHMARK.json).
//
// A workload is a Spec (endpoint mix in ratio weights, tau/k
// parameters, worker and request counts) plus a Snapshot of the served
// corpus (live IDs + serialized trees). Request generation is a pure
// function of (Spec, Snapshot, Seed): the same inputs yield
// byte-identical request streams, so any run can be reproduced, and
// distinct seeds yield disjoint mutation tags (MutationTag), so
// concurrent harness processes never collide on generated content.
//
// Runner sends the stream closed-loop — Conc workers, one request in
// flight each — dealt round-robin over one or more targets, and returns
// a Result with Counts per endpoint, per target and in total. A 503
// from admission control counts as shed, never as an error. A transport
// failure, any other non-2xx status, a streamed response without its
// terminal done record, or a failed Runner.Check counts as an error.
// The e2e tests set Check to compare every served answer with the
// in-process engine. A Spec.Tenant tags every request with the
// X-Tenant header, so several runs with distinct tenants and seeds can
// drive one server together. cmd/tedload is the CLI.
package load
