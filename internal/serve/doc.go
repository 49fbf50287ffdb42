// Package serve is Daydream's long-lived prediction service: a stdlib
// net/http JSON API over the trace→graph→simulate pipeline, built so
// one immutable baseline graph answers many what-if queries (the
// paper's §4 design, turned into a persistent surface).
//
// # Endpoints
//
//	POST /v1/baselines                 upload a trace; build, validate,
//	                                   simulate and index the baseline;
//	                                   returns its content-derived ID
//	POST /v1/baselines/{id}/predict    one opt-stack expression → one
//	                                   predicted iteration time
//	POST /v1/baselines/{id}/sweep      a grid of expressions fanned
//	                                   through internal/sweep, dispatch
//	                                   tier reported per row
//	GET  /v1/baselines/{id}/diagnose   critical path + per-kind and
//	                                   per-phase attribution
//	GET  /healthz                      liveness
//	GET  /statsz                       cache hit rate, queue depth,
//	                                   per-endpoint latency counters
//
// # Concurrency contract
//
// A baseline is immutable once published: handlers read its graph,
// schedule and layer index without locks, and every what-if evaluates
// through worker-owned Patch/scratch buffers checked out of a
// shared sweep.Pool — the baseline itself is never written after
// upload. At most Config.Workers simulations run at once (a sweep
// counts as one); up to Config.QueueDepth more may wait. Beyond that
// the server sheds load with 429 rather than queueing unboundedly.
// Identical in-flight predict scenarios coalesce into one computation
// (single-flight), and completed predictions land in a bounded LRU
// result cache keyed by (baseline ID, canonical stack expression,
// canonical parameters, timeout).
//
// # Eviction contract
//
// The registry holds at most Config.MaxBaselines baselines. Inserting
// past the bound evicts the least-recently-used baseline with no
// in-flight requests pinning it; baselines referenced by an active
// request are never evicted, so the registry may transiently exceed
// the bound rather than yank a graph out from under a handler. An
// evicted ID answers 404 until re-uploaded (same bytes → same ID).
//
// # Failure and shutdown
//
// Errors map the PR-7 taxonomy onto HTTP: malformed traces are 4xx
// with a machine-readable "kind" in the JSON body, graph-level
// invariant violations are 422, deadlines are 504, overload is 429,
// and a panicking optimization costs one 500 — the worker quarantines
// its buffers and the server stays up. Shutdown first refuses new work
// (503 "draining"), then drains in-flight simulations, then cancels
// the base context so stragglers abort through core.WithContext.
package serve
