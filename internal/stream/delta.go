package stream

import (
	"repro/internal/core"
)

// Incremental capture. A Server's durable state grows with T — the
// budgets and the published rows — so re-capturing all of it at every
// checkpoint costs O(T) each time and O(T²) over a session's life. A
// ServerDelta carries only what changed since an earlier capture, and
// ServerState.Extend layers it back on: state(t₀) ⊕ delta(t₀ → t₁)
// equals Snapshot() at t₁ exactly.
//
// What never changes after construction — domain, users, the cohort
// map, the cohorts' chains — is not in a delta. Since a snapshot stores
// no leakage series, a capture's cursor is just its step count: the
// delta from step t₀ is the steps after t₀ plus the small mutable state
// a capture replaces whole.

// ServerDelta is what changed in a Server between two captures: steps
// FromT+1..ToT (budgets and published rows) and the small mutable state
// a capture replaces whole (noise position, plan position and the
// setter-controlled scalars).
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

// SnapshotDelta captures what changed since the capture that covered
// the first fromT steps (a Snapshot's T(), or an earlier delta's ToT),
// under the same lock Snapshot takes. It copies only the rows from
// fromT onward; its ToT is the cursor the next delta extends from.
func (s *Server) SnapshotDelta(fromT int) *ServerDelta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	T := s.budgets.Len()
	d := &ServerDelta{
		FromT:       fromT,
		ToT:         T,
		Budgets:     s.budgets.AppendRange(nil, fromT, T),
		Published:   make([][]float64, 0, T-fromT),
		Sensitivity: s.sensitivity,
		Noise:       int(s.noise),
		HasPlan:     s.plan != nil,
		PlanBase:    s.planBase,
		RNG:         s.noiseStateLocked(),
	}
	for t := fromT; t < T; t++ {
		d.Published = append(d.Published, append([]float64(nil), s.published.At(t)...))
	}
	return d
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
