package stream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mechanism"
	"repro/internal/release"
)

// Batched collection. The v2 wire API ingests many time steps per
// request; CollectBatch is its substrate: one lock acquisition, one
// validation pass over the whole batch, then the releases. The batch is
// atomic in the same sense a single Collect is — everything that can
// fail (step shapes, budgets, plan horizon, mechanism parameters) is
// checked before the first accountant is touched, so a rejected batch
// charges no user for any of its steps.

// BatchStep is one time step of a CollectBatch call. The step's
// database is declared exactly one way: Values (one entry per user, as
// Collect takes) or Counts (the pre-aggregated histogram — the compact
// wire shape for large populations, since leakage accounting depends
// only on the budget sequence, never on who held which value).
type BatchStep struct {
	// Values is the per-user database of the step (len == Users()).
	Values []int
	// Counts is the pre-aggregated histogram: len == Domain(),
	// non-negative entries summing to Users().
	Counts []int
	// Eps is the explicit per-step budget; nil draws from the attached
	// release plan (as CollectPlanned does).
	Eps *float64
}

// StepResult reports one step a batch landed: the 1-based step index,
// the budget actually charged, whether it came from the plan, and the
// published noisy histogram. Draws is the noise-stream position after
// the step (0 when the stream is untracked) — the journaling layer
// records it so replays fast-forward the stream exactly.
type StepResult struct {
	T         int
	Eps       float64
	Planned   bool
	Published []float64
	Draws     uint64
}

// preparedStep is a fully validated step awaiting its release: the true
// histogram, the resolved budget, and the noise mechanism already
// constructed (so applying a prepared batch cannot fail). release
// appends the noisy histogram to dst — the batch path carves every
// step's output from one slab instead of allocating per step.
type preparedStep struct {
	hist    []int
	eps     float64
	planned bool
	release func(dst []float64, counts []int) []float64
}

// releaserLocked builds the noise mechanism for one step's budget,
// memoizing the last construction: a stream charging the same budget
// step after step (the common continuous-release shape) rebuilds
// nothing. The memo is invalidated whenever the noise kind, the
// sensitivity, or the RNG seam changes (SetNoise, SetSensitivity,
// setNoiseSourceLocked) — the mechanism itself is stateless between
// releases; only the rand.Rand it draws from carries state, and that is
// shared by construction. Caller holds the write lock.
//
//tplvet:hotpath
func (s *Server) releaserLocked(eps float64) (func(dst []float64, counts []int) []float64, error) {
	if s.relFn != nil && s.relEps == eps && s.relNoise == s.noise && s.relSens == s.sensitivity {
		return s.relFn, nil
	}
	fn, err := s.buildReleaserLocked(eps)
	if err != nil {
		return nil, err
	}
	s.relFn, s.relEps, s.relNoise, s.relSens = fn, eps, s.noise, s.sensitivity
	return fn, nil
}

// buildReleaserLocked constructs the mechanism without consulting the
// memo. Caller holds the write lock.
func (s *Server) buildReleaserLocked(eps float64) (func(dst []float64, counts []int) []float64, error) {
	switch s.noise {
	case release.GeometricNoise:
		geo, err := mechanism.NewGeometric(eps, int(s.sensitivity), s.rng)
		if err != nil {
			return nil, err
		}
		return func(dst []float64, h []int) []float64 {
			for _, v := range geo.ReleaseCounts(h) {
				dst = append(dst, float64(v))
			}
			return dst
		}, nil
	default:
		lap, err := mechanism.NewLaplace(eps, s.sensitivity, s.rng)
		if err != nil {
			return nil, err
		}
		return lap.AppendReleaseCounts, nil
	}
}

// prepareLocked validates one step and resolves its budget into *p
// (written in place: the batch path prepares straight into its
// preallocated slice, and the struct's slice/func fields make a
// by-value return a measurable per-step write-barrier cost). offset is
// the number of batch steps that will land before this one (0 for a
// single-step collect) — plan budgets are drawn by absolute step index,
// so a batch mixing explicit and planned budgets indexes the plan
// exactly as the equivalent sequence of single-step collects would.
// Caller holds the write lock.
//
//tplvet:hotpath
func (s *Server) prepareLocked(p *preparedStep, st BatchStep, offset int) error {
	switch {
	case st.Values != nil && st.Counts != nil:
		return fmt.Errorf("stream: step declares both values and counts")
	case st.Values != nil:
		if len(st.Values) != s.users {
			return fmt.Errorf("%w: %d values for %d users", ErrDomainMismatch, len(st.Values), s.users)
		}
		// Build the histogram directly: one pass validates the domain
		// range and aggregates, where mechanism.NewSnapshot would copy
		// the 100k-value slice and scan it twice.
		p.hist = make([]int, s.domain)
		for i, v := range st.Values {
			if v < 0 || v >= s.domain {
				return fmt.Errorf("stream: user %d has value %d outside [0,%d)", i, v, s.domain)
			}
			p.hist[v]++
		}
	case st.Counts != nil:
		if len(st.Counts) != s.domain {
			return fmt.Errorf("%w: %d counts for domain %d", ErrDomainMismatch, len(st.Counts), s.domain)
		}
		total := 0
		for v, c := range st.Counts {
			if c < 0 {
				return fmt.Errorf("stream: count for value %d is negative (%d)", v, c)
			}
			total += c
		}
		if total != s.users {
			return fmt.Errorf("%w: counts sum to %d for %d users", ErrDomainMismatch, total, s.users)
		}
		// Alias, don't copy: the histogram is only read (the release
		// mechanisms allocate their own output), and it is dead once the
		// step is applied — CollectBatch borrows the caller's slices for
		// the duration of the call, which is what lets the service layer
		// feed pooled decode buffers straight through.
		p.hist = st.Counts
	default:
		return fmt.Errorf("stream: step declares neither values nor counts")
	}
	if st.Eps != nil {
		p.eps = *st.Eps
		if err := core.CheckBudget(p.eps); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	} else {
		if s.plan == nil {
			return ErrNoPlan
		}
		p.planned = true
		step := s.budgets.Len() + offset - s.planBase + 1
		if h := s.plan.Horizon(); h > 0 && step > h {
			return fmt.Errorf("stream: plan step %d beyond horizon %d: %w", step, h, release.ErrHorizonExceeded)
		}
		eps, err := s.plan.BudgetAt(step)
		if err != nil {
			return err
		}
		p.eps = eps
	}
	var err error
	if p.release, err = s.releaserLocked(p.eps); err != nil {
		return err
	}
	return nil
}

// releaseLocked publishes one prepared step — noise draw, history
// append — WITHOUT charging the accountants; the caller owes an
// observeAll for the step's budget. Splitting release from observation
// lets CollectBatch draw noise in exact step order (the RNG stream is
// serial) while fanning the independent per-cohort accounting out once
// per batch instead of once per step. The noisy histogram is carved
// from slab (capacity-capped, so later carves cannot clobber it; if
// the slab grows and relocates, earlier carves keep reading their own
// immutable memory). The result is written into *out — the batch path
// releases straight into its preallocated results slice, and the
// struct's Published slice field makes a by-value return a per-step
// write-barrier cost. Caller holds the write lock.
//
//tplvet:hotpath
func (s *Server) releaseLocked(p *preparedStep, slab *[]float64, out *StepResult) {
	start := len(*slab)
	buf := p.release(*slab, p.hist)
	*slab = buf
	noisy := buf[start:len(buf):len(buf)]
	// The history lives for the session in chunked logs: the append
	// writes one tail slot and never re-copies the settled history
	// (the doubling memmove it replaces was visible in ingest
	// profiles).
	s.published.Append(noisy)
	s.budgets.Append(p.eps)
	*out = StepResult{T: s.budgets.Len(), Eps: p.eps, Planned: p.planned, Published: noisy}
	if s.noiseSrc != nil {
		out.Draws = s.noiseSrc.draws
	}
}

// CollectBatch ingests a sequence of time steps under one lock: the
// whole batch is validated first (shapes, budgets, plan horizon), then
// every step is released in order. A batch that fails validation
// publishes nothing and charges no accountant — the same all-or-nothing
// contract Collect gives one step, extended to the sequence. Budgets
// may mix explicit and planned steps; noise draws are identical to the
// equivalent sequence of single-step collects.
//
//tplvet:hotpath
func (s *Server) CollectBatch(steps []BatchStep) ([]StepResult, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("stream: empty batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prepared := make([]preparedStep, len(steps))
	for i, st := range steps {
		if err := s.prepareLocked(&prepared[i], st, i); err != nil {
			return nil, fmt.Errorf("stream: batch step %d: %w", i+1, err)
		}
	}
	results := make([]StepResult, len(prepared))
	epsSeq := make([]float64, len(prepared))
	// One output slab for the whole batch: the per-step noisy
	// histograms land in history and live forever, so carving them from
	// one allocation costs nothing extra and saves a per-step malloc.
	slab := make([]float64, 0, len(prepared)*s.domain)
	for i := range prepared {
		s.releaseLocked(&prepared[i], &slab, &results[i])
		epsSeq[i] = prepared[i].eps
	}
	// One accounting fan-out for the whole batch: each cohort observes
	// the batch's budgets in step order (per-cohort accounting is
	// sequential in eps order but independent across cohorts), so a
	// 96-step batch costs one goroutine hand-off per worker, not 96.
	s.observeAll(epsSeq)
	return results, nil
}

// LeakagePoint is the per-step leakage digest of one published time
// point: the population-worst TPL at t together with its backward and
// forward components and the user attaining it. The watch endpoint
// streams one per step.
type LeakagePoint struct {
	T         int
	Eps       float64
	TPL       float64
	BPL       float64
	FPL       float64
	WorstUser int
}

// LeakageAt computes the population-worst leakage digest at 1-based
// time t (one accountant query per cohort; FPL values reflect all
// releases observed so far, per Eq. 10's backward-recomputation).
func (s *Server) LeakageAt(t int) (LeakagePoint, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t < 1 || t > s.budgets.Len() {
		return LeakagePoint{}, fmt.Errorf("stream: time %d out of range [1,%d]", t, s.budgets.Len())
	}
	p := LeakagePoint{T: t, Eps: s.budgets.At(t - 1)}
	for i, c := range s.cohorts {
		l, err := c.leakage(i, t)
		if err != nil {
			return LeakagePoint{}, err
		}
		if i == 0 || l.TPL > p.TPL {
			p.TPL, p.BPL, p.FPL, p.WorstUser = l.TPL, l.BPL, l.FPL, l.FirstUser
		}
	}
	return p, nil
}

// CohortLeakage is one cohort's leakage digest at a time point: the
// shared accountant's TPL with its backward and forward components,
// attributed to the cohort's smallest member id. The decision-log hook
// embeds one per cohort in each audit record.
type CohortLeakage struct {
	Cohort    int
	FirstUser int
	TPL       float64
	BPL       float64
	FPL       float64
}

// CohortLeakages computes every cohort's leakage digest at 1-based
// time t — K accountant queries, K = distinct adversary models, so the
// cost matches one step of accounting, not the population size. FPL
// values reflect all releases observed so far (Eq. 10 recomputes
// forward leakage backward from the stream tail), so querying an older
// t reports that step's leakage as currently known.
func (s *Server) CohortLeakages(t int) ([]CohortLeakage, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t < 1 || t > s.budgets.Len() {
		return nil, fmt.Errorf("stream: time %d out of range [1,%d]", t, s.budgets.Len())
	}
	out := make([]CohortLeakage, len(s.cohorts))
	for i, c := range s.cohorts {
		var err error
		if out[i], err = c.leakage(i, t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// leakage is the digest of cohort i at 1-based time t, shared by
// LeakageAt and CohortLeakages.
func (c *cohort) leakage(i, t int) (CohortLeakage, error) {
	tpl, err := c.acc.TPL(t)
	var bpl, fpl float64
	if err == nil {
		bpl, err = c.acc.BPL(t)
	}
	if err == nil {
		fpl, err = c.acc.FPL(t)
	}
	if err != nil {
		return CohortLeakage{}, fmt.Errorf("stream: cohort %d leakage at t=%d: %w", i, t, err)
	}
	return CohortLeakage{Cohort: i, FirstUser: c.firstUser, TPL: tpl, BPL: bpl, FPL: fpl}, nil
}

// PublishedRange returns copies of the budgets and published
// histograms for 1-based steps [from, to] under one lock acquisition —
// the paginated read of the release history, and its only read.
func (s *Server) PublishedRange(from, to int) (eps []float64, hists [][]float64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if from < 1 || to > s.budgets.Len() || from > to {
		return nil, nil, fmt.Errorf("stream: range [%d,%d] outside [1,%d]", from, to, s.budgets.Len())
	}
	eps = s.budgets.AppendRange(eps, from-1, to)
	hists = make([][]float64, 0, to-from+1)
	for t := from; t <= to; t++ {
		hists = append(hists, append([]float64(nil), s.published.At(t-1)...))
	}
	return eps, hists, nil
}

// UserTPLRange returns user u's TPL at every 1-based time point in
// [from, to] — the paginated slice of UserTPLSeries.
func (s *Server) UserTPLRange(u, from, to int) ([]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if from < 1 || to > s.budgets.Len() || from > to {
		return nil, fmt.Errorf("stream: range [%d,%d] outside [1,%d]", from, to, s.budgets.Len())
	}
	c, err := s.cohortFor(u)
	if err != nil {
		return nil, err
	}
	return c.acc.TPLRange(from, to)
}
