package stream

import (
	"errors"

	"repro/internal/release"
)

// ErrNoPlan is returned by CollectPlanned when no release plan has been
// attached to the server.
var ErrNoPlan = errors.New("stream: no release plan attached; call SetPlan or use Collect with an explicit budget")

// SetPlan attaches a budget plan to the server: subsequent
// CollectPlanned calls draw their per-step budget from the plan instead
// of taking an explicit epsilon. Passing nil detaches the plan.
//
// The plan's time index starts at the server's *next* step, so a plan
// can be attached mid-stream (e.g. after an initial exploratory phase
// released with explicit budgets).
func (s *Server) SetPlan(plan release.Plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = plan
	s.planBase = s.budgets.Len()
}

// CollectPlanned ingests one time step using the attached plan's budget
// for the current step. It fails with release.ErrHorizonExceeded once a
// finite plan is exhausted — the caller must attach a new plan (or fall
// back to explicit budgets) to continue, which keeps budget exhaustion
// an explicit, auditable event. Like Collect, it is a one-step
// CollectBatch.
func (s *Server) CollectPlanned(values []int) ([]float64, error) {
	return s.collectOne(BatchStep{Values: values})
}

// PlanStep returns the 1-based step the next CollectPlanned will use
// from the attached plan, or 0 when no plan is attached.
func (s *Server) PlanStep() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.plan == nil {
		return 0
	}
	return s.budgets.Len() - s.planBase + 1
}

// PlanHorizon returns the attached plan's finite horizon in steps, or
// 0 when no plan is attached or the plan is horizonless. Together with
// PlanStep it is the budget-pressure signal the status plugin reports:
// plan_step/horizon is how much of the planned budget is spent.
func (s *Server) PlanHorizon() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.plan == nil {
		return 0
	}
	return s.plan.Horizon()
}

// HasPlan reports whether a budget plan is attached.
func (s *Server) HasPlan() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.plan != nil
}
