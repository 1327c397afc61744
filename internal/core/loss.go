package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"repro/internal/markov"
	"repro/internal/matrix"
)

// LossResult is the outcome of evaluating the temporal privacy loss
// function L^B or L^F (Eq. (23) or (24)) on a whole transition matrix:
// the maximum PairLoss over all ordered row pairs, together with the
// maximizing pair.
type LossResult struct {
	// Log is the loss increment L(alpha): max over ordered row pairs of
	// the pair log-ratio. Always >= 0.
	Log float64
	// QSum, DSum identify the maximizing pair for Theorem 5 (the q and d
	// scalars of the paper).
	QSum, DSum float64
	// RowQ, RowD are the indices of the maximizing rows (q is row RowQ,
	// d is row RowD). Both are -1 when every pair yields zero loss.
	RowQ, RowD int
}

// Quantifier computes temporal privacy loss functions for a fixed
// transition matrix. On first evaluation it compiles the matrix into an
// Engine (see engine.go): the pair structure — candidate sets, ratio
// orders, dominance-pruned prefix curves, the upper envelope over all
// pairs — is precomputed once, and every Loss(alpha) afterwards is a
// binary search plus one closed-form lookup. The recurrences (series
// over T, supremum probes, accountants) evaluate the same matrix
// thousands of times with only alpha changing, which is exactly the
// access pattern the compilation amortizes against.
//
// A Quantifier is safe for concurrent use once constructed: compilation
// is guarded by a sync.Once and the engine is immutable, so one
// quantifier can back any number of accountants, cohorts and sessions.
//
// A nil *Quantifier is valid and represents "no correlation known to the
// adversary" (the paper's empty matrix ∅): its loss function is
// identically zero, so BPL/FPL reduce to the per-step leakage PL0.
type Quantifier struct {
	rows []matrix.Vector
	n    int

	compileOnce sync.Once
	eng         *Engine

	// onCompile, when set, runs inside the compile Once right after
	// compileRows — the persistence hook the on-disk engine cache uses
	// to capture freshly compiled engines. It must be set before the
	// quantifier is shared (SetOnCompile documents the contract); it is
	// never called for adopted engines.
	onCompile func(*Engine)
}

// NewQuantifier builds a Quantifier from a Markov chain describing the
// adversary's backward or forward temporal correlation. A nil chain
// yields a nil Quantifier, meaning no correlation. Compilation is lazy:
// it runs on the first Loss evaluation, not here, so building
// quantifiers stays cheap for callers that never evaluate.
func NewQuantifier(c *markov.Chain) *Quantifier {
	if c == nil {
		return nil
	}
	p := c.P()
	rows := make([]matrix.Vector, p.Rows())
	for i := range rows {
		rows[i] = p.Row(i)
	}
	return &Quantifier{rows: rows, n: p.Rows()}
}

// N returns the state-space size, or 0 for the nil (no-correlation)
// quantifier.
func (qt *Quantifier) N() int {
	if qt == nil {
		return 0
	}
	return qt.n
}

// ContentHash returns a stable hex SHA-256 of the quantifier's
// transition-matrix content (row-major little-endian float64 bits), or
// "" for the nil (no-correlation) quantifier. Two quantifiers with equal
// hashes compile to identical engines, so the hash keys compiled engines
// (the on-disk engine cache) without serializing the matrix twice.
func (qt *Quantifier) ContentHash() string {
	if qt == nil {
		return ""
	}
	h := sha256.New()
	var buf [8]byte
	for _, row := range qt.rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Engine returns the compiled loss function, compiling it on first use.
// It returns nil for the nil quantifier. Compilation parallelizes
// across cores above the compile-time size threshold (see engine.go);
// callers never choose sequential vs parallel by hand.
func (qt *Quantifier) Engine() *Engine {
	if qt == nil {
		return nil
	}
	qt.compileOnce.Do(func() {
		qt.eng = compileRows(qt.rows)
		if qt.onCompile != nil {
			qt.onCompile(qt.eng)
		}
	})
	return qt.eng
}

// AdoptEngine pre-seeds the quantifier with an already compiled engine
// (deserialized from the on-disk cache), consuming the compile Once so
// no compilation ever runs. It reports whether the engine was adopted:
// a nil quantifier, a nil engine, a state-space mismatch, or a
// quantifier that already compiled all refuse. Compilation is a
// deterministic function of chain content, so adopting an engine that
// was compiled (by any process) from the same content is
// indistinguishable from compiling here.
func (qt *Quantifier) AdoptEngine(e *Engine) bool {
	if qt == nil || e == nil || e.n != qt.n {
		return false
	}
	adopted := false
	qt.compileOnce.Do(func() {
		qt.eng = e
		adopted = true
	})
	return adopted
}

// SetOnCompile registers f to run with the freshly compiled engine if
// and when this quantifier compiles one itself (adopted engines do not
// fire it — they were already persisted). It must be called before the
// quantifier escapes to other goroutines: the field write is
// unsynchronized by design, ordered only by whatever publishes the
// quantifier (the model cache sets it under its own lock, before the
// quantifier is returned to any caller).
func (qt *Quantifier) SetOnCompile(f func(*Engine)) {
	if qt == nil {
		return
	}
	qt.onCompile = f
}

// Loss evaluates the loss function at prior leakage alpha through the
// compiled engine: a binary search over the precomputed envelope
// instead of Algorithm 1's scan over every ordered pair of distinct
// rows. For the nil quantifier it returns a zero LossResult. The result
// agrees with LossNaive (the direct Algorithm 1 scan, kept as the
// reference implementation) to within floating-point rounding for
// unit-sum rows — see the numerical contract in engine.go; the
// differential tests in engine_test.go pin this down.
func (qt *Quantifier) Loss(alpha float64) LossResult {
	if qt == nil || alpha == 0 {
		return LossResult{RowQ: -1, RowD: -1}
	}
	return qt.Engine().Eval(alpha)
}

// LossNaive evaluates the loss function with the pre-compilation pair
// scan: Algorithm 1's outer loop over every ordered pair of distinct
// rows, each pair re-deriving its optimal subset by iterative pruning.
// It is retained as the differential-testing oracle for the compiled
// engine and as the honest "Algorithm 1" timing route of the Fig. 5
// runtime comparison; production paths use Loss.
func (qt *Quantifier) LossNaive(alpha float64) LossResult {
	res := LossResult{RowQ: -1, RowD: -1}
	if qt == nil || alpha == 0 {
		return res
	}
	scratch := make([]int, 0, qt.n) // one buffer for the whole scan
	for i := 0; i < qt.n; i++ {
		for j := 0; j < qt.n; j++ {
			if i == j {
				continue
			}
			pr := pairLoss(qt.rows[i], qt.rows[j], alpha, scratch)
			if pr.Log > res.Log {
				res.Log = pr.Log
				res.QSum = pr.QSum
				res.DSum = pr.DSum
				res.RowQ = i
				res.RowD = j
			}
		}
	}
	return res
}

// LossValue is Loss but returns only the increment, for call sites that
// do not need the maximizing pair.
func (qt *Quantifier) LossValue(alpha float64) float64 { return qt.Loss(alpha).Log }

// IsIdentityLike reports whether the loss function is the identity map
// (L(alpha) = alpha for alpha > 0), which happens exactly under the
// strongest correlation (some pair with q = 1, d = 0). Under such
// correlation leakage accumulates linearly without bound and no
// supremum exists (Theorem 5, fourth case).
func (qt *Quantifier) IsIdentityLike() bool {
	if qt == nil {
		return false
	}
	const probe = 1.0
	res := qt.Loss(probe)
	return math.Abs(res.Log-probe) < 1e-12
}
