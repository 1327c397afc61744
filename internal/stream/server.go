// Package stream implements the continuous-data-release substrate of the
// paper's problem setting (Section II-C): a trusted server collects each
// user's value into a database D^t at every time step and publishes a
// differentially private aggregate r^t, while tracking the temporal
// privacy leakage of everything published so far against a registry of
// adversaries with per-user temporal correlations.
//
// It glues together mechanism (the Laplace primitives), core (the TPL
// accountants) and release (the budget plans) into the end-to-end
// pipeline of Fig. 1.
//
// # Cohort-sharded accounting
//
// Temporal privacy leakage depends only on the adversary's correlation
// model and the budget sequence, not on the user's identity, so users
// declaring identical adversary models provably accrue identical
// leakage. The server exploits this: users are deduplicated into
// cohorts keyed by model content, each cohort shares one accountant,
// and a step costs K accountant updates (K = distinct models, fanned
// out over workers) instead of N (the population). A million-user
// session with a handful of model classes accounts a step in
// microseconds.
//
// # Concurrency
//
// A Server is safe for concurrent use: Collect and the other mutators
// take a write lock, while the read-side accessors (Published, Budgets,
// UserTPL, WEvent, Report, T, PlanStep, Snapshot) take a read lock, so
// they run concurrently with each other — also on one cohort — and
// block only for the duration of a collection. A cohort's accountant
// needs nothing more: core.Accountant lets reads run concurrently as
// long as Observe runs alone, and Observe runs only under the write
// lock. Collections themselves serialize — the step sequence is the
// unit of accounting, so this is semantic, not incidental.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chunked"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/mechanism"
	"repro/internal/release"
)

// ErrDomainMismatch is returned when a collected snapshot disagrees with
// the server's configured domain or user count.
var ErrDomainMismatch = errors.New("stream: snapshot does not match server configuration")

// AdversaryModel describes the temporal correlations one adversary_T is
// assumed to know about a user (Definition 4). Either chain may be nil.
type AdversaryModel struct {
	Backward *markov.Chain // P^B_i, Pr(l_{t-1} | l_t)
	Forward  *markov.Chain // P^F_i, Pr(l_t | l_{t-1})
}

// cohort is one equivalence class of users under adversary-model
// content equality. All members share the accountant. Only the smallest
// member id is retained — members resolve through Server.userCohort, so
// keeping the full list would cost O(N) for one int of information.
type cohort struct {
	acc       *core.Accountant
	firstUser int // smallest member user id
	// backward, forward retain the adversary model's chains (shared
	// pointers, one per cohort not per user) so Snapshot can serialize
	// the model content — the compiled engines are re-derived from it on
	// restore rather than serialized.
	backward, forward *markov.Chain
}

// Server is the trusted aggregator. It publishes a noisy histogram per
// time step and maintains one TPL accountant per cohort of users with
// identical adversary models.
type Server struct {
	domain int
	users  int

	mu          sync.RWMutex
	sensitivity float64
	rng         *rand.Rand
	// Noise-RNG seam (see noise.go): when the source is tracked,
	// noiseSrc counts draws so snapshots can record the stream position;
	// noiseSeed/noiseProvenance say whether and how it can be restored.
	noiseSrc        *countingSource
	noiseSeed       int64
	noiseProvenance string
	cohorts         []*cohort
	userCohort      []int // user id -> index into cohorts
	// published and budgets are the session-lifetime release history;
	// chunked storage keeps the per-step append free of history
	// memmove (see internal/chunked).
	published chunked.Log[[]float64] // r^1, r^2, ... (noisy histograms)
	budgets   chunked.Log[float64]   // eps_t actually spent

	plan     release.Plan // optional budget plan for CollectPlanned
	planBase int          // number of steps already taken when the plan was attached

	noise release.Noise // perturbation primitive; Laplace by default

	// Releaser memo (see releaserLocked): the last-built noise mechanism
	// and the parameters it was built for. relFn nil means no memo.
	relFn    func(dst []float64, counts []int) []float64
	relEps   float64
	relSens  float64
	relNoise release.Noise

	// obsNs estimates one accountant Observe in nanoseconds (EWMA,
	// see observeAll). Trivial cohorts cost a few ns per observe;
	// engine-backed ones 30-150ns — three orders of magnitude around
	// the point where goroutine fan-out stops paying for itself.
	obsNs float64
}

// NewServer creates a release server over the given value domain and
// user population. models must contain one adversary model per user; a
// user with a nil-chains model corresponds to the traditional DP
// adversary. rng may be nil for a deterministic default.
//
// Users with content-identical models (same transition probabilities,
// including both being absent) are grouped into one cohort sharing a
// single accountant; see the package comment. Passing the same *Chain
// pointer to many users is the cheap way to declare a cohort — content
// is only fingerprinted once per distinct pointer.
//
// Compiled correlation models are additionally deduplicated by chain
// content within the server: cohorts whose backward or forward chains
// coincide share one core.Quantifier, so each distinct transition
// matrix compiles its leakage engine exactly once. Use NewServerCached
// to extend that sharing across servers.
func NewServer(domain, users int, models []AdversaryModel, rng *rand.Rand) (*Server, error) {
	return NewServerCached(domain, users, models, rng, nil)
}

// NewServerCached is NewServer with an explicit compiled-model cache,
// letting many servers (the service registry's sessions) share one
// compiled engine per distinct chain content. A nil cache gives the
// server a private one.
func NewServerCached(domain, users int, models []AdversaryModel, rng *rand.Rand, cache *ModelCache) (*Server, error) {
	if domain <= 0 {
		return nil, fmt.Errorf("stream: domain must be positive, got %d", domain)
	}
	if users <= 0 {
		return nil, fmt.Errorf("stream: need at least one user, got %d", users)
	}
	if len(models) != users {
		return nil, fmt.Errorf("stream: %d adversary models for %d users", len(models), users)
	}
	for i, m := range models {
		if m.Backward != nil && m.Backward.N() != domain {
			return nil, fmt.Errorf("stream: user %d backward chain has %d states, domain is %d", i, m.Backward.N(), domain)
		}
		if m.Forward != nil && m.Forward.N() != domain {
			return nil, fmt.Errorf("stream: user %d forward chain has %d states, domain is %d", i, m.Forward.N(), domain)
		}
	}
	if cache == nil {
		cache = NewModelCache()
	}
	s := &Server{
		domain:      domain,
		users:       users,
		sensitivity: mechanism.CountSensitivity,
		userCohort:  make([]int, users),
	}
	if rng == nil {
		// The historical deterministic default, now through the tracked
		// seam so even default-constructed servers snapshot exactly.
		s.setNoiseSourceLocked(1, NoiseSeeded)
	} else {
		// A caller-supplied generator is opaque: its position cannot be
		// serialized, so snapshots of this server record only that a
		// restore must re-seed.
		s.rng = rng
		s.noiseProvenance = NoiseExternal
	}
	byKey := make(map[string]int) // model fingerprint -> cohort index
	// A population shares chain pointers, so the cohort index is
	// memoised per (backward, forward) pointer pair: the O(domain²) key
	// is built once per distinct pair, not once per user.
	byPair := make(map[AdversaryModel]int)
	fps := make(map[*markov.Chain]string)
	for i, m := range models {
		if ci, ok := byPair[m]; ok {
			s.userCohort[i] = ci
			continue
		}
		// Length-prefix the backward fingerprint so the concatenation of
		// two variable-length byte strings stays unambiguous.
		bfp := chainFingerprint(m.Backward, fps)
		ffp := chainFingerprint(m.Forward, fps)
		key := strconv.Itoa(len(bfp)) + ":" + bfp + ffp
		ci, ok := byKey[key]
		if !ok {
			ci = len(s.cohorts)
			byKey[key] = ci
			// The quantifiers come from the content-keyed cache: cohorts
			// (and, with a shared cache, whole servers) with the same
			// chain reuse one compiled engine. Compilation is a
			// deterministic function of chain content, so sharing is
			// invisible to the accounting.
			acc := core.NewAccountantFromQuantifiers(cache.quantifier(m.Backward, bfp), cache.quantifier(m.Forward, ffp))
			s.cohorts = append(s.cohorts, &cohort{acc: acc, firstUser: i, backward: m.Backward, forward: m.Forward})
		}
		byPair[m] = ci
		s.userCohort[i] = ci
	}
	return s, nil
}

// chainFingerprint returns a content key for a chain: the raw bits of
// its transition probabilities in row-major order (exact equality — no
// hashing, so no collisions; a real fingerprint is at least 8 bytes, so
// the 1-byte nil marker cannot collide with one). The per-pointer cache
// makes the common shared-pointer population O(1) per user after the
// first encounter.
func chainFingerprint(c *markov.Chain, cache map[*markov.Chain]string) string {
	if c == nil {
		return "-"
	}
	if s, ok := cache[c]; ok {
		return s
	}
	n := c.N()
	var b strings.Builder
	b.Grow(8 * n * n)
	var buf [8]byte
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Prob(i, j)))
			b.Write(buf[:])
		}
	}
	s := b.String()
	cache[c] = s
	return s
}

// Cohorts returns the number of distinct adversary-model cohorts the
// population deduplicated into: the per-step accounting cost in
// accountant updates.
func (s *Server) Cohorts() int { return len(s.cohorts) }

// CohortOf returns the cohort index user u belongs to.
func (s *Server) CohortOf(u int) (int, error) {
	if u < 0 || u >= s.users {
		return 0, fmt.Errorf("stream: user %d out of range [0,%d)", u, s.users)
	}
	return s.userCohort[u], nil
}

// Users returns the population size.
func (s *Server) Users() int { return s.users }

// Domain returns the value-domain size.
func (s *Server) Domain() int { return s.domain }

// SetSensitivity overrides the query sensitivity (default: 1, the
// paper's per-count convention). Use mechanism.HistogramL1Sensitivity
// for the strict joint-histogram calibration. When geometric noise is
// already selected the sensitivity must stay integral — the constraint
// is re-validated here, not just in SetNoise, so the two setters are
// order-independent.
func (s *Server) SetSensitivity(delta float64) error {
	if delta <= 0 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return fmt.Errorf("stream: sensitivity must be finite and positive, got %v", delta)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.noise == release.GeometricNoise && delta != math.Trunc(delta) {
		return fmt.Errorf("stream: geometric noise needs integral sensitivity, got %v", delta)
	}
	s.sensitivity = delta
	return nil
}

// Sensitivity returns the configured query sensitivity.
func (s *Server) Sensitivity() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sensitivity
}

// SetNoise selects the perturbation primitive (default Laplace).
// Geometric noise requires the sensitivity to be integral.
func (s *Server) SetNoise(noise release.Noise) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch noise {
	case release.LaplaceNoise:
	case release.GeometricNoise:
		if s.sensitivity != math.Trunc(s.sensitivity) {
			return fmt.Errorf("stream: geometric noise needs integral sensitivity, have %v", s.sensitivity)
		}
	default:
		return fmt.Errorf("stream: unknown noise kind %d", int(noise))
	}
	s.noise = noise
	return nil
}

// Noise returns the configured perturbation primitive.
func (s *Server) Noise() release.Noise {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.noise
}

// Collect ingests the database of one time step and publishes its noisy
// histogram under an eps-DP mechanism, updating every cohort's leakage
// accountant. It returns the published histogram.
//
// The step is all-or-nothing: the budget, values and noise parameters
// are validated before any accountant is touched, so a failed Collect
// leaves no user charged for a step that was never published.
//
// Collect is a one-step CollectBatch, so its errors carry the batch's
// "batch step 1:" prefix.
func (s *Server) Collect(values []int, eps float64) ([]float64, error) {
	return s.collectOne(BatchStep{Values: values, Eps: &eps})
}

// collectOne runs one step through CollectBatch and returns its
// published histogram.
func (s *Server) collectOne(st BatchStep) ([]float64, error) {
	results, err := s.CollectBatch([]BatchStep{st})
	if err != nil {
		return nil, err
	}
	return results[0].Published, nil
}

// observeAll charges a sequence of budgets (one per batch step, in
// step order) to every cohort accountant, adaptively fanning the
// per-cohort work out over up to GOMAXPROCS workers — one fan-out
// decision per batch, not per step. Every eps has already passed
// core.CheckBudget — the only error Observe can return — so an error
// here is a core invariant violation, not an input problem, and panics
// rather than leaving the batch half-observed. The panic is raised from
// the calling goroutine (worker errors are collected first), so a
// recover higher up — e.g. net/http's handler recovery — confines the
// blast radius to one request instead of the whole process.
//
// Adaptivity: a per-cohort observe ranges from a few ns (budget check
// plus two chunked appends, loss memoized) to ~150ns (engine-backed
// loss on a cold memo), while spawning a worker costs on the order of
// a microsecond. Charging a 96-step batch to ten trivial cohorts is
// ~4µs of real work — a parallel dispatch would spend more than that
// on goroutine startup alone, and the single-step Collect path used to
// pay that tax on every call. So cohort 0 is always charged inline and
// timed, feeding an EWMA of the per-observe cost; the remaining
// cohorts go parallel only when the estimated sequential remainder
// exceeds the spawn cost of the workers that would absorb it.
// Sequential batches time the full truth, so an estimate that ever
// misjudges heavy work corrects itself on the next batch.
func (s *Server) observeAll(epsSeq []float64) {
	if len(s.cohorts) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	observeCohort := func(c *cohort) error {
		for _, eps := range epsSeq {
			if _, err := c.acc.Observe(eps); err != nil {
				return err
			}
		}
		return nil
	}

	// Cohort 0 runs inline as this batch's cost sample.
	start := time.Now()
	invariant := observeCohort(s.cohorts[0])
	if n := len(epsSeq); n > 0 {
		sample := float64(time.Since(start).Nanoseconds()) / float64(n)
		if s.obsNs == 0 {
			s.obsNs = sample
		} else {
			s.obsNs += (sample - s.obsNs) / 8 // EWMA, alpha = 1/8
		}
	}

	rest := s.cohorts[1:]
	if workers > len(rest) {
		workers = len(rest)
	}
	// Estimated cost of charging the remaining cohorts sequentially,
	// vs ~1.5µs of startup+handoff per worker goroutine.
	const spawnNs = 1500
	estimate := s.obsNs * float64(len(epsSeq)) * float64(len(rest))
	if workers <= 1 || estimate < float64(workers)*spawnNs {
		for _, c := range rest {
			if err := observeCohort(c); err != nil && invariant == nil {
				invariant = err
			}
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(rest); i += workers {
					if err := observeCohort(rest[i]); err != nil && errs[w] == nil {
						errs[w] = err
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil && invariant == nil {
				invariant = err
			}
		}
	}
	if invariant != nil {
		panic(fmt.Sprintf("stream: validated budget rejected by accountant: %v", invariant))
	}
}

// T returns the number of time steps published so far.
func (s *Server) T() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.published.Len()
}

// UserTPL returns user u's temporal privacy leakage at 1-based time t.
func (s *Server) UserTPL(u, t int) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.cohortFor(u)
	if err != nil {
		return 0, err
	}
	return c.acc.TPL(t)
}

// UserTPLSeries returns user u's TPL at every time point published so
// far (1-based time t is element t-1): UserTPLRange over [1, T].
func (s *Server) UserTPLSeries(u int) ([]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.cohortFor(u)
	if err != nil {
		return nil, err
	}
	return c.acc.TPLRange(1, c.acc.T())
}

// cohortFor resolves user u's cohort; the caller holds at least a read
// lock.
func (s *Server) cohortFor(u int) (*cohort, error) {
	if u < 0 || u >= s.users {
		return nil, fmt.Errorf("stream: user %d out of range [0,%d)", u, s.users)
	}
	return s.cohorts[s.userCohort[u]], nil
}

// Report summarizes the privacy guarantee of everything published so
// far, per Definition 8 and Table II.
type Report struct {
	T int
	// EventLevelAlpha is the maximum over users and time points of the
	// temporal privacy leakage: the alpha of the overall alpha-DP_T
	// guarantee (Definition 8 takes the max over all users).
	EventLevelAlpha float64
	// WorstUser is the user attaining EventLevelAlpha.
	WorstUser int
	// UserLevel is the user-level leakage (Corollary 1): the plain sum
	// of the budgets, identical for all users.
	UserLevel float64
	// NominalEventLevel is the per-step guarantee a correlation-unaware
	// analysis would claim: the maximum single-step budget.
	NominalEventLevel float64
}

// Report computes the current privacy guarantee summary.
func (s *Server) Report() (*Report, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.budgets.Len() == 0 {
		return &Report{}, nil
	}
	// UserLevel is core.UserLevelTPL's plain sequential sum, walked
	// chunk-by-chunk in the same step order.
	r := &Report{T: s.budgets.Len()}
	for ci, n := 0, s.budgets.Chunks(); ci < n; ci++ {
		for _, e := range s.budgets.Chunk(ci) {
			r.UserLevel += e
			if e > r.NominalEventLevel {
				r.NominalEventLevel = e
			}
		}
	}
	var err error
	if r.EventLevelAlpha, r.WorstUser, err = s.worstCohort((*core.Accountant).MaxTPL); err != nil {
		return nil, err
	}
	return r, nil
}

// worstCohort returns the largest leakage f reports over the cohorts,
// with the smallest user id attaining it. Every member of a cohort
// attains the same leakage, and cohorts are ordered by first-encountered
// user id, so keeping the first cohort on ties makes the worst user the
// smallest user id attaining the maximum — the same user the pre-cohort
// per-user scan reported. Caller holds the read lock.
func (s *Server) worstCohort(f func(*core.Accountant) (float64, error)) (float64, int, error) {
	worst, user := math.Inf(-1), 0
	for _, c := range s.cohorts {
		v, err := f(c.acc)
		if err != nil {
			return 0, 0, err
		}
		if v > worst {
			worst, user = v, c.firstUser
		}
	}
	return worst, user, nil
}

// WEvent returns the worst leakage of any w-length window for user u
// (Theorem 2 / Table II middle row).
func (s *Server) WEvent(u, w int) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.cohortFor(u)
	if err != nil {
		return 0, err
	}
	return c.acc.WEvent(w)
}

// MaxWEvent returns the worst w-window leakage over the whole
// population (one accountant query per cohort) together with the
// smallest user id attaining it (ties keep the earliest cohort, which
// holds the smallest user id).
func (s *Server) MaxWEvent(w int) (float64, int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.worstCohort(func(a *core.Accountant) (float64, error) { return a.WEvent(w) })
}
