// Package client is the typed Go SDK for the tplserved continuous-
// release service (the repository's internal/service API). It wraps
// the v2 wire contract — batched step ingestion, idempotency keys,
// cursor pagination, problem+json errors, SSE watch streams — in a
// context-aware Go API so callers never hand-roll HTTP requests.
//
// # Quick start
//
//	c, err := client.New("http://localhost:8344")
//	...
//	sum, err := c.CreateSession(ctx, client.SessionConfig{
//		Name: "city", Domain: 4,
//		Cohorts: []client.Cohort{{Users: 100000, Model: client.Model{Backward: chain}}},
//	})
//	res, err := c.Steps(ctx, "city", []client.Step{
//		{Values: values, Eps: client.Eps(0.1)},
//		{Counts: counts}, // pre-aggregated histogram, planned budget
//	})
//	rep, err := c.Report(ctx, "city")
//
// # Retries and idempotency
//
// Every request is retried with exponential backoff on transport
// errors and 5xx responses — including Steps, because the SDK attaches
// a generated Idempotency-Key to every batch by default: a retry of a
// batch the server already applied is replayed from its history, never
// double-charged. This is the property that makes retrying a POST safe
// at all.
//
// # Streaming ingestion
//
// NewBatchWriter returns a buffered writer that flushes steps to the
// batch endpoint by size or interval — the shape for continuous
// telemetry pipelines. Watch subscribes to the SSE stream of per-step
// TPL/BPL/FPL frames for live dashboards.
//
// # Errors
//
// Every non-2xx response surfaces as an *APIError carrying the
// machine-readable problem code. Branch with errors.As and the Code
// constants (CodeBudgetExhausted, CodeSessionNotFound, ...), or the
// convenience predicates (IsNotFound, IsBudgetExhausted, ...).
package client
