package service

import (
	"time"
)

// Decision logging: the audit seam of the accounting service. Every
// ingestion outcome — a batch of steps applied, a budget refusal, an
// idempotent replay — can be streamed to a DecisionSink so a fleet
// keeps a durable record of every privacy decision, not just the
// current accounting state. The hook is deliberately narrow: the hot
// path pays one atomic load when no sink is attached, and one
// freshly-allocated record handed to Record when one is. Sinks must
// never block (the decision-log plugin buffers and drops with a
// counter — see internal/plugins/logs).

// Decision is one audited accounting decision. One record covers one
// CollectBatch call — the unit the steps endpoint and the SDK ingest by
// — so decision volume scales with requests, not steps.
type Decision struct {
	// Time is the server-side decision time.
	Time time.Time `json:"time"`
	// Session is the session name the decision applies to.
	Session string `json:"session"`
	// Kind is "steps" (batch applied), "refusal" (batch rejected,
	// nothing charged) or "replay" (idempotent re-answer, nothing
	// charged).
	Kind string `json:"kind"`
	// Steps is the number of time steps the batch carried.
	Steps int `json:"steps,omitempty"`
	// FirstT/LastT are the 1-based step span the batch landed
	// (kind "steps") or re-answered (kind "replay").
	FirstT int `json:"first_t,omitempty"`
	LastT  int `json:"last_t,omitempty"`
	// EpsSum/EpsMax aggregate the budget the batch charged.
	EpsSum float64 `json:"eps_sum,omitempty"`
	EpsMax float64 `json:"eps_max,omitempty"`
	// Cohorts digests the post-batch cumulative leakage per cohort
	// (kind "steps" only).
	Cohorts []DecisionCohort `json:"cohorts,omitempty"`
	// Code/Detail classify a refusal (the same stable problem code the
	// wire error carries).
	Code   string `json:"code,omitempty"`
	Detail string `json:"detail,omitempty"`
	// IdemKey is the Idempotency-Key of the batch, when one was given.
	IdemKey string `json:"idempotency_key,omitempty"`
	// ModelRevision is the bundle revision the session's models were
	// resolved from (empty for inline-configured sessions).
	ModelRevision string `json:"model_revision,omitempty"`
}

// DecisionCohort is one cohort's cumulative leakage at the batch's
// last step — TPL and its backward/forward components, per Definition
// 4 of the paper — plus the first user holding it.
type DecisionCohort struct {
	Cohort    int     `json:"cohort"`
	FirstUser int     `json:"first_user"`
	TPL       float64 `json:"tpl"`
	BPL       float64 `json:"bpl"`
	FPL       float64 `json:"fpl"`
}

// DecisionSink receives decisions. Record must not block and must not
// retain d.Cohorts beyond the call unless it owns the copy it was
// given (the service allocates a fresh slice per record, so retaining
// the record itself is fine).
type DecisionSink interface {
	Record(d Decision)
}

// sinkBox wraps the interface so an atomic.Pointer can publish it.
type sinkBox struct{ sink DecisionSink }

// SetDecisionSink attaches (or, with nil, detaches) the decision sink.
// Safe to call at any time; in-flight batches record to whichever sink
// the atomic load observed.
func (r *Registry) SetDecisionSink(sink DecisionSink) {
	if sink == nil {
		r.decisions.Store(nil)
		return
	}
	r.decisions.Store(&sinkBox{sink: sink})
}

// decisionSink returns the active sink, or nil. The single atomic load
// is the whole disabled-path cost.
func (s *Session) decisionSink() DecisionSink {
	if s.sink == nil {
		return nil
	}
	if box := s.sink.Load(); box != nil {
		return box.sink
	}
	return nil
}

// recordSteps emits the "steps" decision for a just-applied batch.
// Caller holds stepMu; the cohort digest queries the server's
// accountants directly (cheap: O(cohorts), no per-user work) and every
// slice is freshly allocated — nothing pooled escapes into the sink.
func (s *Session) recordSteps(sink DecisionSink, firstT, lastT int, epsSum, epsMax float64, steps int, key string) {
	d := Decision{
		Time:          s.now(),
		Session:       s.name,
		Kind:          "steps",
		Steps:         steps,
		FirstT:        firstT,
		LastT:         lastT,
		EpsSum:        epsSum,
		EpsMax:        epsMax,
		IdemKey:       key,
		ModelRevision: s.modelRevision,
	}
	if leaks, err := s.srv.CohortLeakages(lastT); err == nil {
		d.Cohorts = make([]DecisionCohort, len(leaks))
		for i, l := range leaks {
			d.Cohorts[i] = DecisionCohort{Cohort: l.Cohort, FirstUser: l.FirstUser, TPL: l.TPL, BPL: l.BPL, FPL: l.FPL}
		}
	}
	sink.Record(d)
}

// recordRefusal emits the "refusal" decision for a rejected batch,
// classified with the same stable problem code the wire error carries.
func (s *Session) recordRefusal(sink DecisionSink, steps int, key string, err error) {
	_, code := classify(err)
	sink.Record(Decision{
		Time:          s.now(),
		Session:       s.name,
		Kind:          "refusal",
		Steps:         steps,
		Code:          code,
		Detail:        err.Error(),
		IdemKey:       key,
		ModelRevision: s.modelRevision,
	})
}

// recordReplay emits the "replay" decision for an idempotent
// re-answer: nothing was charged, the record exists so the audit trail
// explains why a client saw a response without a matching charge.
func (s *Session) recordReplay(sink DecisionSink, firstT, lastT int, key string) {
	sink.Record(Decision{
		Time:          s.now(),
		Session:       s.name,
		Kind:          "replay",
		Steps:         lastT - firstT + 1,
		FirstT:        firstT,
		LastT:         lastT,
		IdemKey:       key,
		ModelRevision: s.modelRevision,
	})
}
