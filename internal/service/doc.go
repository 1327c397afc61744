// Package service turns the in-process continuous-release library
// (internal/stream) into a long-running multi-tenant server: the
// trusted aggregator of the paper's Fig. 1 operated as an HTTP
// service instead of a batch CLI.
//
// The unit of tenancy is the session: one named, independently
// configured stream.Server — value domain, per-user (or per-cohort)
// adversary models, noise kind, optional release plan. Sessions live
// in a concurrency-safe Registry and are driven over a stdlib-only
// net/http API.
//
// # The wire contract (/v2; see DESIGN.md §7)
//
//	GET    /healthz                          liveness: version, sessions, users, uptime, persistence health
//	GET    /v2/sessions                      list session summaries
//	POST   /v2/sessions                      create a session (SessionConfig JSON)
//	GET    /v2/sessions/{name}               one session summary
//	DELETE /v2/sessions/{name}               drop a session (and its persisted state)
//	POST   /v2/sessions/{name}/steps         BATCH step ingestion: a JSON array of steps, or an
//	                                         NDJSON stream (Content-Type: application/x-ndjson);
//	                                         each step carries "values" (per-user) or "counts"
//	                                         (pre-aggregated histogram) and an optional "eps";
//	                                         validated atomically — the batch lands whole or not
//	                                         at all; an Idempotency-Key header makes retries
//	                                         exactly-once (replays answer from history)
//	POST   /v2/sessions/{name}/snapshot      force a durable snapshot now (409 in ephemeral mode)
//	GET    /v2/sessions/{name}/published     release history, cursor-paginated (?cursor=&limit=)
//	GET    /v2/sessions/{name}/tpl?user=U    per-user TPL series, cursor-paginated
//	GET    /v2/sessions/{name}/wevent?w=W    w-window leakage (?user=U, else population worst)
//	GET    /v2/sessions/{name}/report        the Definition-8 guarantee summary
//	GET    /v2/sessions/{name}/watch         SSE stream: one TPL/BPL/FPL frame per published step
//	                                         (?from=T replays history after T, Last-Event-ID resumes)
//
// Errors are uniform RFC 7807 application/problem+json documents with
// stable machine-readable codes (problem.go): budget_exhausted,
// session_not_found, invalid_state, idempotency_conflict,
// unsupported_format (listing the supported values), and so on. The
// public tpl/client package wraps all of this in a typed Go SDK with
// automatic idempotency keys and retry-safe batching — new callers
// should use it rather than raw HTTP.
//
// # Scale
//
// Scale comes from the cohort-sharded accounting in internal/stream —
// a million-user population declared as a handful of cohorts costs one
// accountant update per distinct model per step — and from batched
// ingestion: one NDJSON request lands thousands of steps under a
// single lock acquisition, with a hand-rolled fast-path decoder
// (fastpath.go) for the hot step shape and a pre-aggregated "counts"
// form that removes the O(users) transport term entirely. BENCH_api.json
// records the resulting ingest throughput per wire shape.
//
// # Durability
//
// Durability is opt-in per process (tplserved -state-dir): the
// registry snapshots each session's full accounting state (a base,
// atomically replaced when the journal outgrows it) and journals every
// ingestion batch — steps plus idempotency record, one checksummed
// journal record per batch — through internal/persist, restores all
// sessions on boot from the last snapshot plus the journal, and
// survives SIGKILL with a
// bit-identical leakage series; the idempotency memory survives with
// it, so a retry of a batch that landed just before a crash is
// replayed, not double-charged. Restore reads one layout, a base
// (snapshot schema v3 or v4) plus a v2 journal, and refuses any other
// loudly — another schema version, or a delta log an older version
// left beside the base — keeping the session's files; see DESIGN.md §6
// and §7.
package service
