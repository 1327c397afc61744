package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/chunked"
	"repro/internal/markov"
)

// lossQuantifier is the one capability the accountant needs from a
// quantifier: evaluating the loss increment. It is satisfied by
// *Quantifier (including a nil one — the no-correlation loss) and, in
// tests, by call-counting stubs that pin down the accountant's
// evaluation complexity.
type lossQuantifier interface {
	LossValue(alpha float64) float64
}

// Accountant tracks the temporal privacy leakage of an ongoing
// continuous release against one adversary_T(P^B, P^F). Each call to
// Observe records that an eps-DP mechanism was applied at the next time
// step; the accountant maintains the backward leakage incrementally
// (BPL at time t depends only on the past) and refreshes the forward
// series lazily and incrementally: FPL at every past time point grows
// when new releases happen (Example 3), but the refresh recomputes
// backward from the new tail only until it reproduces a cached value —
// once FPL'(t+1) equals the cached FPL(t+1), every earlier point is
// unchanged too (the recurrence is a deterministic function of the
// successor), so the cached prefix is reused. Saturating series (any
// bounded-supremum correlation) therefore refresh in O(appends + tail)
// evaluations instead of O(T).
//
// The zero value is not usable; construct with NewAccountant.
//
// Observe must run alone; every other method may run concurrently with
// the others. A read can still write — it refreshes the cached forward
// series — so that cache has its own lock, and holding it is the
// accountant's business, not the caller's.
type Accountant struct {
	qb, qf lossQuantifier
	// eps and bpl live for the session and grow every step; chunked
	// storage makes the append O(1) with no memmove of the settled
	// history (see internal/chunked — the hand-doubled slices they
	// replace re-copied the whole multi-MB history on every doubling).
	eps chunked.Log[float64]
	bpl chunked.Log[float64] // bpl[t], maintained incrementally

	// fplMu guards what a read writes (refreshFPL): fpl and the
	// forward-loss memo at the end of the struct.
	fplMu sync.Mutex
	fpl   []float64 // cached FPL series for the first len(fpl) observations

	// Backward-loss memo: the last two (alpha, L(alpha)) evaluations.
	// The BPL recurrence bpl[t] = L(bpl[t-1]) + eps[t] saturates under
	// any bounded-supremum correlation; once it reaches its floating-
	// point fixed point (or a 2-cycle, hence two entries) the argument
	// repeats *exactly*, and the memo answers without touching the
	// engine. This is pure memoization of a deterministic function —
	// bit-identical results, it only skips re-deriving them — and it is
	// what keeps steady-state ingest cost flat: a converged stream pays
	// two float compares per step instead of an envelope search and a
	// log/exp chain.
	memoArg [2]float64
	memoVal [2]float64
	memoN   int // valid entries (0..2); memoArg[0] is most recent

	// Forward-loss memo: the last (alpha, L^F(alpha)) evaluation. The
	// refresh walks FPL(t) = L^F(FPL(t+1)) + eps_t backward; under a
	// constant budget it reaches its floating-point fixed point within a
	// few steps and the argument then repeats exactly, so a refresh from
	// an empty cache — the first read after a restore — costs O(distinct
	// values) engine evaluations, not O(T). Pure memoization, like the
	// backward memo.
	fwdArg, fwdVal float64
	fwdOK          bool
}

// NewAccountant builds an accountant for an adversary with the given
// backward and forward correlations. Either chain may be nil, meaning
// the adversary does not know that direction (the three adversary types
// of Definition 4).
func NewAccountant(pb, pf *markov.Chain) *Accountant {
	return NewAccountantFromQuantifiers(NewQuantifier(pb), NewQuantifier(pf))
}

// NewAccountantFromQuantifiers is NewAccountant for callers that already
// built (and possibly share) Quantifiers. Quantifiers are safe to share:
// the compiled engine is immutable, so cohorts and sessions with
// content-identical models hand the same quantifier to many accountants
// and pay its compilation once.
func NewAccountantFromQuantifiers(qb, qf *Quantifier) *Accountant {
	return &Accountant{qb: qb, qf: qf}
}

// CheckBudget validates a per-step privacy budget: Observe accepts eps
// if and only if CheckBudget(eps) is nil. Callers that must guarantee
// all-or-nothing semantics across many accountants (stream.Server's
// fan-out) validate once up front instead of discovering the error
// mid-update.
func CheckBudget(eps float64) error {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("core: budget must be finite and positive, got %v", eps)
	}
	return nil
}

// Observe records a release with per-step budget eps at the next time
// step and returns the new length of the sequence.
func (a *Accountant) Observe(eps float64) (int, error) {
	if err := CheckBudget(eps); err != nil {
		return 0, err
	}
	// bpl and eps grow in lockstep into chunked tail slots: no append
	// growth factor, no memmove of the settled history ever.
	if n := a.bpl.Len(); n == 0 {
		a.bpl.Append(eps)
	} else {
		a.bpl.Append(a.backwardLoss(a.bpl.At(n-1)) + eps)
	}
	a.eps.Append(eps)
	return a.eps.Len(), nil
}

// backwardLoss evaluates the backward quantifier through the two-entry
// memo (see the field comment on memoArg).
func (a *Accountant) backwardLoss(alpha float64) float64 {
	if a.memoN > 0 && a.memoArg[0] == alpha {
		return a.memoVal[0]
	}
	if a.memoN > 1 && a.memoArg[1] == alpha {
		// Promote so an exact 2-cycle keeps hitting.
		a.memoArg[0], a.memoArg[1] = a.memoArg[1], a.memoArg[0]
		a.memoVal[0], a.memoVal[1] = a.memoVal[1], a.memoVal[0]
		return a.memoVal[0]
	}
	v := a.qb.LossValue(alpha)
	a.memoArg[1], a.memoVal[1] = a.memoArg[0], a.memoVal[0]
	a.memoArg[0], a.memoVal[0] = alpha, v
	if a.memoN < 2 {
		a.memoN++
	}
	return v
}

// T returns the number of releases observed so far.
func (a *Accountant) T() int { return a.eps.Len() }

// BPL returns the backward privacy leakage at 1-based time t.
func (a *Accountant) BPL(t int) (float64, error) {
	if err := a.checkT(t); err != nil {
		return 0, err
	}
	return a.bpl.At(t - 1), nil
}

// FPL returns the forward privacy leakage at 1-based time t, as of the
// releases observed so far.
func (a *Accountant) FPL(t int) (float64, error) {
	if err := a.checkT(t); err != nil {
		return 0, err
	}
	// Tail fast path: Eq. (10)'s forward recursion bottoms out at the
	// newest release — no future observations exist yet, so its forward
	// leakage is exactly its own budget. Skipping the refresh keeps
	// per-step tail queries (the decision-log hook) O(1) instead of
	// re-walking the history.
	if t == a.eps.Len() {
		return a.eps.At(t - 1), nil
	}
	return a.refreshFPL()[t-1], nil
}

// TPL returns the total temporal privacy leakage at 1-based time t per
// Eq. (10).
func (a *Accountant) TPL(t int) (float64, error) {
	if err := a.checkT(t); err != nil {
		return 0, err
	}
	// Tail fast path, mirroring FPL: at t == T the forward term equals
	// eps[t-1]. The add-then-subtract is kept (not simplified to bare
	// BPL) so the result stays bit-identical to the general formula and
	// to the batch TPLSeries — x + e - e can differ from x in the last
	// ULP, and every differential test here demands exact equality.
	if t == a.eps.Len() {
		e := a.eps.At(t - 1)
		return a.bpl.At(t-1) + e - e, nil
	}
	return a.bpl.At(t-1) + a.refreshFPL()[t-1] - a.eps.At(t-1), nil
}

// TPLRange returns TPL(t) for every 1-based t in [from, to], refreshing
// the forward series once for the whole range. The empty range
// to == from-1 gives an empty slice. At t == T the forward term is
// eps_T exactly, so every element equals what TPL(t) returns.
func (a *Accountant) TPLRange(from, to int) ([]float64, error) {
	if T := a.eps.Len(); from < 1 || to > T || from > to+1 {
		return nil, fmt.Errorf("core: range [%d,%d] outside [1,%d]", from, to, T)
	}
	fpl := a.refreshFPL()
	out := make([]float64, 0, to-from+1)
	for t := from - 1; t < to; t++ {
		out = append(out, a.bpl.At(t)+fpl[t]-a.eps.At(t))
	}
	return out, nil
}

// MaxTPL returns the worst TPL across all time points so far: the
// smallest alpha for which the release so far satisfies alpha-DP_T.
func (a *Accountant) MaxTPL() (float64, error) {
	T := a.eps.Len()
	if T == 0 {
		return 0, nil
	}
	fpl := a.refreshFPL()
	worst := math.Inf(-1)
	// Walk chunk-by-chunk: one bounds check per chunk instead of three
	// per element, and the arithmetic order matches the pre-chunk scan
	// exactly (t ascending).
	for ci, t := 0, 0; t < T; ci++ {
		bc, ec := a.bpl.Chunk(ci), a.eps.Chunk(ci)
		for i := range ec {
			if v := bc[i] + fpl[t] - ec[i]; v > worst {
				worst = v
			}
			t++
		}
	}
	return worst, nil
}

// UserLevel returns the user-level leakage of everything released so far
// (Corollary 1): the plain sequential sum of the budgets, accumulated in
// step order exactly as UserLevelTPL sums a contiguous series.
func (a *Accountant) UserLevel() float64 {
	total := 0.0
	for ci, n := 0, a.eps.Chunks(); ci < n; ci++ {
		for _, e := range a.eps.Chunk(ci) {
			total += e
		}
	}
	return total
}

// WEvent returns the worst w-window leakage so far (Theorem 2). It
// evaluates every length-w window with the same arithmetic WEventTPL
// applies to contiguous series — the chunked walk only changes where
// the loads come from, never the order they are added in.
func (a *Accountant) WEvent(w int) (float64, error) {
	fpl := a.refreshFPL()
	T := a.eps.Len()
	if w < 1 || w > T {
		return 0, fmt.Errorf("core: window w=%d out of range [1,%d]", w, T)
	}
	worst := 0.0
	for start := 0; start+w <= T; start++ {
		var v float64
		if w == 1 {
			v = EventLevelTPL(a.bpl.At(start), fpl[start], a.eps.At(start))
		} else {
			v = a.bpl.At(start) + fpl[start+w-1]
			for t := start + 1; t < start+w-1; t++ {
				v += a.eps.At(t)
			}
		}
		if v > worst {
			worst = v
		}
	}
	return worst, nil
}

// WindowTPL returns the leakage of the specific window {M_from, ...,
// M_to} (1-based, inclusive) under Theorem 2: event-level for from ==
// to, otherwise BPL(from) + FPL(to) + the budgets strictly between.
func (a *Accountant) WindowTPL(from, to int) (float64, error) {
	if err := a.checkT(from); err != nil {
		return 0, err
	}
	if err := a.checkT(to); err != nil {
		return 0, err
	}
	if from > to {
		return 0, fmt.Errorf("core: window [%d,%d] is empty", from, to)
	}
	fpl := a.refreshFPL()
	if from == to {
		return EventLevelTPL(a.bpl.At(from-1), fpl[from-1], a.eps.At(from-1)), nil
	}
	// ComposeTPL's arithmetic order: first + last, then the middle
	// budgets in step order.
	total := a.bpl.At(from-1) + fpl[to-1]
	for t := from; t < to-1; t++ {
		total += a.eps.At(t)
	}
	return total, nil
}

// Budgets returns a copy of the per-step budgets observed so far.
func (a *Accountant) Budgets() []float64 { return a.eps.CopyAll() }

func (a *Accountant) checkT(t int) error {
	if t < 1 || t > a.eps.Len() {
		return fmt.Errorf("core: time %d out of range [1,%d]", t, a.eps.Len())
	}
	return nil
}

// refreshFPL brings the cached forward series up to date with the
// observations and returns it. The recurrence FPL(t) = L^F(FPL(t+1)) +
// eps_t runs backward from the new tail; as soon as a freshly computed
// FPL(t+1) is bit-identical to the cached value for the same t+1, every
// earlier point must agree too (same successor, same budget, same
// deterministic loss function), and the cached prefix is kept. Every
// budget was validated by Observe, so unlike the batch FPLSeries there
// is no input to reject.
//
// The refresh rewrites the changed suffix in place (growing the slice
// with headroom when the horizon outgrows it), so a read after a few
// new steps costs the suffix, not a copy of the whole history. It runs
// under fplMu, so concurrent reads refresh once; the returned series is
// not written again before the next Observe, which runs alone, so the
// caller reads it without the lock.
func (a *Accountant) refreshFPL() []float64 {
	a.fplMu.Lock()
	defer a.fplMu.Unlock()
	T := a.eps.Len()
	old := a.fpl
	oldT := len(old)
	if oldT == T {
		return old
	}
	inPlace := cap(old) >= T
	var fpl []float64
	if inPlace {
		fpl = old[:T]
	} else {
		fpl = make([]float64, T, T+T/4)
	}
	// next is the recomputed FPL(t+1); nextOld its cached value, read
	// before an in-place write replaces it (hasOld: t+1 < oldT).
	next := a.eps.At(T - 1)
	fpl[T-1] = next
	var nextOld float64
	hasOld := false
	t := T - 2
	for ; t >= 0; t-- {
		if hasOld && next == nextOld {
			break
		}
		if hasOld = t < oldT; hasOld {
			nextOld = old[t]
		}
		next = a.forwardLoss(next) + a.eps.At(t)
		fpl[t] = next
	}
	if !inPlace {
		copy(fpl[:t+1], old[:t+1])
	}
	a.fpl = fpl
	return fpl
}

// forwardLoss evaluates the forward quantifier through the one-entry
// memo (see the field comment on fwdArg). Caller holds fplMu.
func (a *Accountant) forwardLoss(alpha float64) float64 {
	if !a.fwdOK || a.fwdArg != alpha {
		a.fwdArg, a.fwdVal, a.fwdOK = alpha, a.qf.LossValue(alpha), true
	}
	return a.fwdVal
}
