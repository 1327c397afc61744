package stream

import (
	"repro/internal/core"
)

// Incremental state. A Server's durable state grows with T — the
// budgets and the published rows — so re-capturing all of it at every
// checkpoint would cost O(T) each time. Durable state is a full
// ServerState (a base) plus what happened since, which the state takes
// back in place: AppendStep folds one journaled step onto it, and
// Extend layers on a ServerDelta, the incremental record earlier
// versions wrote between bases. Either way RestoreServer then charges
// the whole history once.
//
// What never changes after construction — domain, users, the cohort
// map, the cohorts' chains — is in neither.

// ServerDelta is the incremental record earlier versions wrote between
// bases, read and no longer written: what changed in a Server between
// two captures, steps FromT+1..ToT (budgets and published rows) and the
// small mutable state a capture replaced whole (noise position, plan
// position and the setter-controlled scalars).
//
//tplvet:wire v2 schema=49a013e32f82
type ServerDelta struct {
	FromT, ToT  int
	Budgets     []float64
	Published   [][]float64
	Sensitivity float64
	Noise       int // release.Noise
	HasPlan     bool
	PlanBase    int
	RNG         NoiseState
}

// Extend layers a delta onto the state in place, reusing its slices'
// spare capacity (st must not share them with another state): the
// delta must start exactly where the state ends (FromT == T()) — a gap
// or an overlap is rejected with ErrBadServerState and leaves st
// untouched. Extend checks the delta's own shape; RestoreServer's
// validation checks the extended state's invariants as it would any
// snapshot's.
func (st *ServerState) Extend(d *ServerDelta) error {
	if d == nil {
		return badState("nil delta")
	}
	if d.FromT != st.T() {
		return badState("delta covers steps %d..%d but the state ends at step %d", d.FromT+1, d.ToT, st.T())
	}
	n := d.ToT - d.FromT
	if n < 0 || len(d.Budgets) != n || len(d.Published) != n {
		return badState("delta %d..%d carries %d budgets and %d published rows", d.FromT+1, d.ToT, len(d.Budgets), len(d.Published))
	}
	for i, row := range d.Published {
		if len(row) != st.Domain {
			return badState("delta step %d has %d bins, domain is %d", d.FromT+i+1, len(row), st.Domain)
		}
	}
	for i, e := range d.Budgets {
		if err := core.CheckBudget(e); err != nil {
			return badState("delta budget at step %d: %v", d.FromT+i+1, err)
		}
	}
	st.Budgets = append(st.Budgets, d.Budgets...)
	st.Published = append(st.Published, d.Published...)
	st.Sensitivity, st.Noise = d.Sensitivity, d.Noise
	st.HasPlan, st.PlanBase, st.RNG = d.HasPlan, d.PlanBase, d.RNG
	return nil
}

// AppendStep folds one journal record onto the state in place: its
// budget and published row, and the noise position if it is further
// along. The record must continue the state exactly (T == T()+1); a gap
// or an overlap is rejected with ErrBadServerState and leaves st
// untouched. Budgets and row widths are checked by RestoreServer's
// validation, as for any snapshot.
func (st *ServerState) AppendStep(rec StepRecord) error {
	if rec.T != st.T()+1 {
		return badState("step record for t=%d but the state ends at t=%d", rec.T, st.T())
	}
	st.Budgets = append(st.Budgets, rec.Eps)
	st.Published = append(st.Published, rec.Published)
	st.RNG.Draws = max(st.RNG.Draws, rec.NoiseDraws)
	return nil
}
