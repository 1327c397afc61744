package stream

import (
	"repro/internal/core"
)

// Incremental capture. A Server's durable state grows with T — the
// budgets, the published rows and every cohort's BPL/FPL series — so
// re-capturing all of it at every checkpoint costs O(T) each time and
// O(T²) over a session's life. A ServerDelta carries only what changed
// since an earlier capture, and ServerState.Extend layers it back on:
// state(t₀) ⊕ delta(t₀ → t₁) equals Snapshot() at t₁ exactly.
//
// What never changes after construction — domain, users, the cohort
// map, the cohorts' chains and content hashes — is not in a delta. The
// per-cohort budget series is not either: every cohort is charged the
// server's budget sequence (observeAll), so Extend rebuilds each
// cohort's Eps from the delta's Budgets.

// CohortDelta is one cohort's share of a ServerDelta.
//
//tplvet:wire v1 schema=e0f3f864d74e
type CohortDelta struct {
	// BPL holds the backward series for the delta's new steps.
	BPL []float64
	// FPLT is the forward cache horizon after the delta; FPL holds the
	// cached forward series from index FPLFrom to FPLT. Entries before
	// FPLFrom are unchanged from the state the delta extends.
	FPLT    int
	FPLFrom int
	FPL     []float64
}

// ServerDelta is what changed in a Server between two captures: steps
// FromT+1..ToT (budgets and published rows), each cohort's new BPL and
// changed FPL suffix, and the small mutable state a capture replaces
// whole (noise position, plan position and the setter-controlled
// scalars).
//
//tplvet:wire v1 schema=f9ef358a00ee
type ServerDelta struct {
	FromT, ToT  int
	Budgets     []float64
	Published   [][]float64
	Cohorts     []CohortDelta
	Workers     int // unused and written as zero, like ServerState.Workers
	Sensitivity float64
	Noise       int // release.Noise
	HasPlan     bool
	PlanBase    int
	RNG         NoiseState
}

// DeltaCursor marks the state a server's last capture persisted: its
// step count and, per cohort, the tail of the forward series it held.
// It is an immutable value; SnapshotDelta returns the cursor to adopt
// once the delta it produced is durable.
type DeltaCursor struct {
	t   int
	fpl []core.FPLTail // per cohort
}

// fplTailLen is how much of each forward series a cursor keeps. A
// refresh rewrites the series from the new tail back to where it
// rejoins the old one — for a converging forward chain, a few dozen
// steps below the old horizon — and the cursor needs the old values
// there to find that point. A series that rejoins further back (or
// never) is captured whole, which is always correct.
const fplTailLen = 1024

// T returns the step count the cursor's capture covered.
func (c *DeltaCursor) T() int { return c.t }

// Cursor describes the server's current state without capturing it:
// for a server restored from state that is already durable, so the
// next SnapshotDelta extends what is on disk.
func (s *Server) Cursor() *DeltaCursor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := &DeltaCursor{t: s.budgets.Len(), fpl: make([]core.FPLTail, len(s.cohorts))}
	for i, c := range s.cohorts {
		cur.fpl[i] = c.acc.FPLTail(fplTailLen)
	}
	return cur
}

// SnapshotDelta captures what changed since the capture described by
// from, and the cursor describing the new capture. It copies only the
// rows from from.T() onward and each cohort's changed FPL suffix, under
// the same lock Snapshot takes.
func (s *Server) SnapshotDelta(from *DeltaCursor) (*ServerDelta, *DeltaCursor) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	T := s.budgets.Len()
	d := &ServerDelta{
		FromT:       from.t,
		ToT:         T,
		Budgets:     s.budgets.AppendRange(nil, from.t, T),
		Published:   make([][]float64, 0, T-from.t),
		Cohorts:     make([]CohortDelta, len(s.cohorts)),
		Sensitivity: s.sensitivity,
		Noise:       int(s.noise),
		HasPlan:     s.plan != nil,
		PlanBase:    s.planBase,
		RNG:         s.noiseStateLocked(),
	}
	for t := from.t; t < T; t++ {
		d.Published = append(d.Published, append([]float64(nil), s.published.At(t)...))
	}
	next := &DeltaCursor{t: T, fpl: make([]core.FPLTail, len(s.cohorts))}
	for i, c := range s.cohorts {
		// A reader may refresh the forward series at any moment;
		// FPLSince returns the suffix and the next cursor's tail from
		// one read of it, so the two describe the same series.
		fplFrom, fpl, tail := c.acc.FPLSince(from.fpl[i], fplTailLen)
		d.Cohorts[i] = CohortDelta{
			BPL:     c.acc.BPLSince(from.t),
			FPLT:    tail.T,
			FPLFrom: fplFrom,
			FPL:     fpl,
		}
		next.fpl[i] = tail
	}
	return d, next
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
	if len(d.Cohorts) != len(st.Cohorts) {
		return badState("delta has %d cohorts, state has %d", len(d.Cohorts), len(st.Cohorts))
	}
	for ci, cd := range d.Cohorts {
		acc := st.Cohorts[ci].Accountant
		if acc == nil {
			return badState("cohort %d has no accountant state", ci)
		}
		if len(cd.BPL) != n {
			return badState("cohort %d delta carries %d BPL values for %d steps", ci, len(cd.BPL), n)
		}
		if cd.FPLFrom < 0 || cd.FPLFrom > len(acc.FPL) || cd.FPLT > d.ToT || cd.FPLT-cd.FPLFrom != len(cd.FPL) {
			return badState("cohort %d FPL delta [%d,%d) with %d values over a cache of %d", ci, cd.FPLFrom, cd.FPLT, len(cd.FPL), len(acc.FPL))
		}
	}
	st.Budgets = append(st.Budgets, d.Budgets...)
	st.Published = append(st.Published, d.Published...)
	for ci, cd := range d.Cohorts {
		acc := st.Cohorts[ci].Accountant
		acc.Eps = append(acc.Eps, d.Budgets...)
		acc.BPL = append(acc.BPL, cd.BPL...)
		acc.FPL = append(acc.FPL[:cd.FPLFrom], cd.FPL...)
		acc.FPLT = cd.FPLT
	}
	st.Workers, st.Sensitivity, st.Noise = d.Workers, d.Sensitivity, d.Noise
	st.HasPlan, st.PlanBase, st.RNG = d.HasPlan, d.PlanBase, d.RNG
	return nil
}
