package stream

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/chunked"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/release"
)

// ErrBadServerState is wrapped by every RestoreServer/ApplyStep
// rejection: corrupt, truncated or inconsistent state must never
// restore into a server claiming a smaller leakage than was accrued.
var ErrBadServerState = errors.New("stream: invalid server state")

// CohortState is one cohort's share of a snapshot: the adversary
// model's chain content, from which the compiled engine is re-derived
// on restore (engines are never serialized). Its leakage series are
// not stored either: they are functions of the chains and the server's
// budgets, and a restore rebuilds them by charging those budgets.
//
//tplvet:wire v3 schema=81fc85a5dd12
type CohortState struct {
	FirstUser int
	// Backward, Forward are the transition rows of the cohort's chains;
	// nil means no correlation in that direction.
	Backward [][]float64
	Forward  [][]float64
}

// ServerState is the explicit, serializable value of a Server: what it
// released (budgets, published rows, noise position) and the models it
// accounts against — every piece of state a restart would otherwise
// lose, and nothing derivable from the rest. It is a deep copy;
// mutating it never affects the server it came from.
//
// Plans are not serialized — they are pure functions of their
// construction parameters, which the owning layer (service configs)
// retains; the snapshot records only the attachment position so a
// rebuilt plan resumes at the right step.
//
//tplvet:wire v3 schema=6a71ee3fdebd
type ServerState struct {
	Domain      int
	Users       int
	Sensitivity float64
	Noise       int // release.Noise
	UserCohort  []int
	Cohorts     []CohortState
	Published   [][]float64
	Budgets     []float64
	HasPlan     bool
	PlanBase    int
	RNG         NoiseState
}

// T returns the number of published steps the state covers.
func (st *ServerState) T() int { return len(st.Budgets) }

// chainRows extracts a chain's transition rows (nil chain -> nil).
func chainRows(c *markov.Chain) [][]float64 {
	if c == nil {
		return nil
	}
	return c.Rows()
}

// Snapshot captures the server's complete state as an explicit value:
// the cohorts' model content, the per-user cohort map, the published
// history and budgets, the plan position, and the noise stream
// position. Safe to call concurrently with readers; it takes the same
// lock a Report does.
func (s *Server) Snapshot() *ServerState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := &ServerState{
		Domain:      s.domain,
		Users:       s.users,
		Sensitivity: s.sensitivity,
		Noise:       int(s.noise),
		UserCohort:  append([]int(nil), s.userCohort...),
		Budgets:     s.budgets.CopyAll(),
		HasPlan:     s.plan != nil,
		PlanBase:    s.planBase,
		RNG:         s.noiseStateLocked(),
	}
	st.Published = make([][]float64, s.published.Len())
	for i := range st.Published {
		st.Published[i] = append([]float64(nil), s.published.At(i)...)
	}
	st.Cohorts = make([]CohortState, len(s.cohorts))
	for i, c := range s.cohorts {
		st.Cohorts[i] = CohortState{
			FirstUser: c.firstUser,
			Backward:  chainRows(c.backward),
			Forward:   chainRows(c.forward),
		}
	}
	return st
}

// RestoreOptions parameterizes RestoreServer.
type RestoreOptions struct {
	// Cache deduplicates the compiled correlation models the restore
	// re-derives from chain content; nil gives the server a private one.
	// Restoring a fleet of sessions through one cache compiles each
	// distinct matrix once, exactly like creating them did.
	Cache *ModelCache
	// Plan re-attaches a budget plan at the snapshot's recorded
	// position. Required when the state says a plan was attached
	// (plans are rebuilt by the layer that knows their construction
	// parameters, not serialized).
	Plan release.Plan
	// ReseedSeed seeds the noise stream when the snapshot's RNG is not
	// restorable (ephemeral/external/reseeded provenance). The restored
	// server records NoiseReseeded provenance. Zero (the natural
	// omission) means "draw one from OS entropy" — a fixed default
	// would hand every careless restore the same predictable noise
	// stream, the exact hole the ephemeral-seed design closes.
	ReseedSeed int64
}

// entropySeed draws a reseed value from the OS entropy source.
func entropySeed() (int64, error) {
	var buf [8]byte
	if _, err := crand.Read(buf[:]); err != nil {
		return 0, fmt.Errorf("stream: drawing reseed entropy: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

// badState wraps a restore rejection with ErrBadServerState.
func badState(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadServerState, fmt.Sprintf(format, args...))
}

// validate checks every structural invariant of a snapshot before any
// of it is adopted.
func (st *ServerState) validate() error {
	if st.Domain <= 0 {
		return badState("domain %d", st.Domain)
	}
	if st.Users <= 0 {
		return badState("users %d", st.Users)
	}
	if len(st.UserCohort) != st.Users {
		return badState("%d cohort assignments for %d users", len(st.UserCohort), st.Users)
	}
	if len(st.Cohorts) == 0 || len(st.Cohorts) > st.Users {
		return badState("%d cohorts for %d users", len(st.Cohorts), st.Users)
	}
	// Every cohort must be referenced, and its FirstUser must be the
	// first reference — the Report tie-breaking contract depends on it.
	first := make([]int, len(st.Cohorts))
	for i := range first {
		first[i] = -1
	}
	for u, ci := range st.UserCohort {
		if ci < 0 || ci >= len(st.Cohorts) {
			return badState("user %d assigned to cohort %d of %d", u, ci, len(st.Cohorts))
		}
		if first[ci] == -1 {
			first[ci] = u
		}
	}
	for ci, u := range first {
		if u == -1 {
			return badState("cohort %d has no members", ci)
		}
		if st.Cohorts[ci].FirstUser != u {
			return badState("cohort %d records first user %d but the map says %d", ci, st.Cohorts[ci].FirstUser, u)
		}
	}
	if len(st.Published) != len(st.Budgets) {
		return badState("%d published steps but %d budgets", len(st.Published), len(st.Budgets))
	}
	for t, row := range st.Published {
		if len(row) != st.Domain {
			return badState("published step %d has %d bins, domain is %d", t+1, len(row), st.Domain)
		}
	}
	for t, e := range st.Budgets {
		if err := core.CheckBudget(e); err != nil {
			return badState("budget at step %d: %v", t+1, err)
		}
	}
	if st.Sensitivity <= 0 || math.IsNaN(st.Sensitivity) || math.IsInf(st.Sensitivity, 0) {
		return badState("sensitivity %v", st.Sensitivity)
	}
	switch release.Noise(st.Noise) {
	case release.LaplaceNoise:
	case release.GeometricNoise:
		if st.Sensitivity != math.Trunc(st.Sensitivity) {
			return badState("geometric noise with non-integral sensitivity %v", st.Sensitivity)
		}
	default:
		return badState("unknown noise kind %d", st.Noise)
	}
	if st.PlanBase < 0 || st.PlanBase > len(st.Budgets) {
		return badState("plan base %d outside [0,%d]", st.PlanBase, len(st.Budgets))
	}
	switch st.RNG.Provenance {
	case NoiseSeeded, NoiseEphemeral, NoiseExternal, NoiseReseeded:
	default:
		return badState("unknown noise provenance %q", st.RNG.Provenance)
	}
	return nil
}

// RestoreServer rebuilds a server from a snapshot. The compiled leakage
// engines are re-attached by content: each cohort's chains are
// revalidated, fingerprinted and resolved through the cache. Each
// cohort's accountant is then rebuilt by charging it the stored budgets,
// through the same fan-out ApplyStep replays the journal with, so a
// restored leakage series cannot disagree with the budgets it was
// charged. The restored server answers Report, UserTPLSeries, WEvent
// and every other read identically to the original, bit for bit.
func RestoreServer(st *ServerState, opts RestoreOptions) (*Server, error) {
	if st == nil {
		return nil, badState("nil state")
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	if st.HasPlan && opts.Plan == nil {
		return nil, badState("snapshot has an attached plan; RestoreOptions.Plan must supply the rebuilt plan")
	}
	if !st.HasPlan && opts.Plan != nil {
		return nil, badState("snapshot has no plan but RestoreOptions.Plan is set")
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewModelCache()
	}
	s := &Server{
		domain:      st.Domain,
		users:       st.Users,
		sensitivity: st.Sensitivity,
		noise:       release.Noise(st.Noise),
		userCohort:  append([]int(nil), st.UserCohort...),
		budgets:     chunked.FromSlice(st.Budgets),
		planBase:    st.PlanBase,
		plan:        opts.Plan,
	}
	for _, row := range st.Published {
		s.published.Append(append([]float64(nil), row...))
	}
	fps := make(map[*markov.Chain]string)
	restoreChain := func(ci int, dir string, rows [][]float64) (*markov.Chain, string, error) {
		if rows == nil {
			return nil, "-", nil
		}
		c, err := markov.FromRows(rows)
		if err != nil {
			return nil, "", badState("cohort %d %s chain: %v", ci, dir, err)
		}
		if c.N() != st.Domain {
			return nil, "", badState("cohort %d %s chain has %d states, domain is %d", ci, dir, c.N(), st.Domain)
		}
		return c, chainFingerprint(c, fps), nil
	}
	for ci, cs := range st.Cohorts {
		pb, bfp, err := restoreChain(ci, "backward", cs.Backward)
		if err != nil {
			return nil, err
		}
		pf, ffp, err := restoreChain(ci, "forward", cs.Forward)
		if err != nil {
			return nil, err
		}
		acc := core.NewAccountantFromQuantifiers(cache.quantifier(pb, bfp), cache.quantifier(pf, ffp))
		s.cohorts = append(s.cohorts, &cohort{acc: acc, firstUser: cs.FirstUser, backward: pb, forward: pf})
	}
	s.observeAll(st.Budgets)
	if st.RNG.Provenance == NoiseSeeded {
		s.setNoiseSourceLocked(st.RNG.Seed, NoiseSeeded)
		s.noiseSrc.skip(st.RNG.Draws)
	} else {
		// The snapshot's noise stream cannot be reproduced (its seed was
		// withheld or never known). Re-seed and record that the stream
		// history broke here — the provenance survives into future
		// snapshots so the break stays auditable.
		seed := opts.ReseedSeed
		if seed == 0 {
			var err error
			if seed, err = entropySeed(); err != nil {
				return nil, err
			}
		}
		s.setNoiseSourceLocked(seed, NoiseReseeded)
	}
	return s, nil
}

// StepRecord is the journal form of one published step: everything a
// replay needs to bring a restored server from step T-1 to step T
// without re-drawing noise. It is deliberately free of derived leakage
// values — replay recomputes them through the accountants, so a
// tampered journal cannot assert a leakage the series does not imply.
//
//tplvet:wire v1 schema=95e9cde6239e
type StepRecord struct {
	// T is the 1-based step this record publishes.
	T int
	// Eps is the budget the step charged.
	Eps float64
	// Published is the noisy histogram that was released.
	Published []float64
	// NoiseDraws is the noise-stream position after the step (0 when the
	// stream was untracked).
	NoiseDraws uint64
}

// ApplyStep replays one journal record: it charges the budget to every
// cohort, appends the already-published histogram verbatim, and
// fast-forwards the noise stream to the recorded position. Records must
// arrive in order with no gaps. Used during recovery (snapshot +
// journal tail); live traffic goes through Collect.
func (s *Server) ApplyStep(rec StepRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.T != s.budgets.Len()+1 {
		return badState("step record for t=%d but server is at t=%d", rec.T, s.budgets.Len())
	}
	if err := core.CheckBudget(rec.Eps); err != nil {
		return badState("step %d: %v", rec.T, err)
	}
	if len(rec.Published) != s.domain {
		return badState("step %d publishes %d bins, domain is %d", rec.T, len(rec.Published), s.domain)
	}
	s.observeAll([]float64{rec.Eps})
	s.published.Append(append([]float64(nil), rec.Published...))
	s.budgets.Append(rec.Eps)
	if s.noiseSrc != nil && s.noiseProvenance == NoiseSeeded && rec.NoiseDraws > s.noiseSrc.draws {
		s.noiseSrc.skip(rec.NoiseDraws - s.noiseSrc.draws)
	}
	return nil
}

// AppendStep folds one journal record onto a decoded base in place: its
// budget and published row, and the noise position if it is further
// along. A base plus its journal folded this way is the session's whole
// durable state, which one RestoreServer then charges at once. The
// record must continue the state exactly (T == T()+1); a gap or an
// overlap is rejected with ErrBadServerState and leaves st untouched.
// Budgets and row widths are checked by RestoreServer's validation, as
// for any snapshot.
func (st *ServerState) AppendStep(rec StepRecord) error {
	if rec.T != st.T()+1 {
		return badState("step record for t=%d but the state ends at t=%d", rec.T, st.T())
	}
	st.Budgets = append(st.Budgets, rec.Eps)
	st.Published = append(st.Published, rec.Published)
	st.RNG.Draws = max(st.RNG.Draws, rec.NoiseDraws)
	return nil
}
