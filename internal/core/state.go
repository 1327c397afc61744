package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/chunked"
)

// This file makes the accountant's state an explicit, serializable
// value. The leakage series an Accountant accumulates is the privacy
// guarantee itself: if it dies with the process, an operator can reset
// every user's budget by bouncing the server. Snapshot/RestoreAccountant
// turn the unexported incremental caches into a versioned schema that
// round-trips bit-identically, while the compiled loss engines — pure
// functions of chain content — are deliberately *not* serialized: a
// restore re-binds the state to quantifiers resolved by content hash
// (see stream.ModelCache), so a fleet restoring a thousand sessions
// still compiles each distinct transition matrix once.

// InvalidStateError reports an AccountantState that cannot have come
// from a well-formed accountant: corrupt or truncated state must never
// restore into a lenient accountant, so every structural invariant is
// checked before any field is adopted.
type InvalidStateError struct {
	Field  string // the offending field
	Reason string // what is wrong with it
}

func (e *InvalidStateError) Error() string {
	return fmt.Sprintf("core: invalid accountant state: %s: %s", e.Field, e.Reason)
}

// ContentHash returns a stable hex SHA-256 of the quantifier's
// transition-matrix content (row-major little-endian float64 bits), or
// "" for the nil (no-correlation) quantifier. Two quantifiers with equal
// hashes compile to identical engines, so the hash is the re-binding key
// that lets serialized accountant state re-attach to a compiled engine
// without serializing the engine itself.
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

// contentHashed is implemented by quantifiers that can report a content
// identity; test stubs that do not implement it snapshot with an empty
// hash and restore only against an empty hash.
type contentHashed interface{ ContentHash() string }

// AccountantState is the explicit value of an Accountant: the budget and
// leakage series plus the content hashes of the correlation models they
// were computed against. It is a deep copy — mutating it never touches
// the accountant it came from — and round-trips bit-identically through
// MarshalBinary/UnmarshalBinary.
//
//tplvet:wire v2 schema=f21af116e89a
type AccountantState struct {
	// BackwardHash, ForwardHash identify the correlation models
	// (Quantifier.ContentHash); "" means no correlation in that
	// direction.
	BackwardHash string
	ForwardHash  string
	// Eps is the per-step budget sequence; BPL the backward leakage
	// series (always len(Eps)); FPL the cached forward series, valid for
	// the first FPLT observations (len(FPL) == FPLT <= len(Eps)).
	Eps  []float64
	BPL  []float64
	FPL  []float64
	FPLT int
}

// T returns the number of observations the state covers.
func (st *AccountantState) T() int { return len(st.Eps) }

// quantifierHash extracts the content hash from a lossQuantifier seam
// value, tolerating typed-nil *Quantifier and hash-less test stubs.
func quantifierHash(q lossQuantifier) string {
	if q == nil {
		return ""
	}
	if qt, ok := q.(*Quantifier); ok {
		return qt.ContentHash() // nil-receiver safe
	}
	if h, ok := q.(contentHashed); ok {
		return h.ContentHash()
	}
	return ""
}

// Snapshot captures the accountant's state as an explicit value. The
// forward-series cache is captured as-is (not refreshed first): the
// refresh is a deterministic function of the state, so a restored
// accountant lazily recomputes exactly what the original would have.
func (a *Accountant) Snapshot() *AccountantState {
	a.fplMu.Lock()
	fpl := append([]float64(nil), a.fpl...)
	a.fplMu.Unlock()
	return &AccountantState{
		BackwardHash: quantifierHash(a.qb),
		ForwardHash:  quantifierHash(a.qf),
		Eps:          a.eps.CopyAll(),
		BPL:          a.bpl.CopyAll(),
		FPL:          fpl,
		FPLT:         len(fpl),
	}
}

// BPLSince returns a copy of the backward series from 0-based step
// fromT onward — Snapshot's BPL without the prefix an earlier capture
// already holds.
func (a *Accountant) BPLSince(fromT int) []float64 {
	return a.bpl.AppendRange(nil, fromT, a.bpl.Len())
}

// FPLTail is the end of a captured forward series: its horizon T and a
// copy of its values from index Off onward.
type FPLTail struct {
	T, Off int
	Vals   []float64
}

// tailOf copies the last n values of the forward series fpl (fewer when
// the series is shorter).
func tailOf(fpl []float64, n int) FPLTail {
	off := max(0, len(fpl)-n)
	return FPLTail{T: len(fpl), Off: off, Vals: append([]float64(nil), fpl[off:]...)}
}

// FPLTail returns the last n values of the cached forward series.
func (a *Accountant) FPLTail(n int) FPLTail {
	a.fplMu.Lock()
	defer a.fplMu.Unlock()
	return tailOf(a.fpl, n)
}

// FPLTail returns the last n values of the captured forward series, as
// Accountant.FPLTail would have at the capture.
func (st *AccountantState) FPLTail(n int) FPLTail { return tailOf(st.FPL, n) }

// FPLSince compares the cached forward series with the earlier one prev
// is the tail of. It returns the first index at which the two differ, a
// copy of the current series from that index on — what a capture must
// add to the earlier one — and the current series' last n values, all
// read under one lock so the suffix and next describe the same series.
//
// The scan runs backward from the shorter horizon and stops at the
// first bit-equal point: both series satisfy FPL(t) = L(FPL(t+1)) +
// eps_t below their horizons, so once they agree at t they agree at
// every earlier point — the same rejoin argument refreshFPL keeps the
// old prefix by. The cost is the length of the changed suffix, not T.
// When the series do not rejoin inside the earlier tail, from is 0:
// the whole series may have changed.
func (a *Accountant) FPLSince(prev FPLTail, n int) (from int, suffix []float64, next FPLTail) {
	a.fplMu.Lock()
	defer a.fplMu.Unlock()
	for i := min(prev.T, len(a.fpl)) - 1; i >= prev.Off; i-- {
		if math.Float64bits(prev.Vals[i-prev.Off]) == math.Float64bits(a.fpl[i]) {
			from = i + 1
			break
		}
	}
	return from, append([]float64(nil), a.fpl[from:]...), tailOf(a.fpl, n)
}

// Validate checks every structural invariant a well-formed accountant
// maintains. It returns a *InvalidStateError describing the first
// violation, or nil. Restores always validate: a lenient restore would
// let truncated or bit-flipped state masquerade as a smaller leakage
// than was actually accumulated.
func (st *AccountantState) Validate() error {
	if len(st.BPL) != len(st.Eps) {
		return &InvalidStateError{Field: "bpl", Reason: fmt.Sprintf("length %d does not match %d budgets", len(st.BPL), len(st.Eps))}
	}
	if st.FPLT < 0 {
		return &InvalidStateError{Field: "fpl_t", Reason: fmt.Sprintf("negative cache horizon %d", st.FPLT)}
	}
	if st.FPLT > len(st.Eps) {
		return &InvalidStateError{Field: "fpl_t", Reason: fmt.Sprintf("cache horizon %d beyond %d observations", st.FPLT, len(st.Eps))}
	}
	if len(st.FPL) != st.FPLT {
		return &InvalidStateError{Field: "fpl", Reason: fmt.Sprintf("length %d does not match cache horizon %d", len(st.FPL), st.FPLT)}
	}
	for t, e := range st.Eps {
		if err := CheckBudget(e); err != nil {
			return &InvalidStateError{Field: "eps", Reason: fmt.Sprintf("step %d: %v", t+1, err)}
		}
	}
	for t, v := range st.BPL {
		// The loss increment is non-negative, so BPL(t) >= eps_t always;
		// BPL(1) has no prior leakage and equals eps_1 exactly.
		if math.IsNaN(v) || math.IsInf(v, 0) || v < st.Eps[t] {
			return &InvalidStateError{Field: "bpl", Reason: fmt.Sprintf("step %d: %v inconsistent with budget %v", t+1, v, st.Eps[t])}
		}
	}
	if len(st.BPL) > 0 && st.BPL[0] != st.Eps[0] {
		return &InvalidStateError{Field: "bpl", Reason: fmt.Sprintf("first step %v must equal first budget %v", st.BPL[0], st.Eps[0])}
	}
	for t, v := range st.FPL {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < st.Eps[t] {
			return &InvalidStateError{Field: "fpl", Reason: fmt.Sprintf("step %d: %v inconsistent with budget %v", t+1, v, st.Eps[t])}
		}
	}
	// A cache computed at horizon FPLT ends with FPL(FPLT) = eps_FPLT
	// (the newest observation leaks only its own budget forward).
	if st.FPLT > 0 && st.FPL[st.FPLT-1] != st.Eps[st.FPLT-1] {
		return &InvalidStateError{Field: "fpl", Reason: fmt.Sprintf("cache tail %v must equal budget %v at horizon %d", st.FPL[st.FPLT-1], st.Eps[st.FPLT-1], st.FPLT)}
	}
	return nil
}

// RestoreAccountant rebuilds an accountant from a snapshot, re-binding
// it to the given quantifiers (either may be nil for no correlation).
// The state is validated structurally and the quantifiers' content
// hashes must match the ones the state was captured against — restoring
// a leakage series onto a different correlation model would silently
// change what the series means. The restored accountant produces
// bit-identical results to the original for every query.
func RestoreAccountant(st *AccountantState, qb, qf *Quantifier) (*Accountant, error) {
	if st == nil {
		return nil, &InvalidStateError{Field: "state", Reason: "nil"}
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if h := qb.ContentHash(); h != st.BackwardHash {
		return nil, &InvalidStateError{Field: "backward_hash", Reason: fmt.Sprintf("state was captured against %q, restoring against %q", abbrevHash(st.BackwardHash), abbrevHash(h))}
	}
	if h := qf.ContentHash(); h != st.ForwardHash {
		return nil, &InvalidStateError{Field: "forward_hash", Reason: fmt.Sprintf("state was captured against %q, restoring against %q", abbrevHash(st.ForwardHash), abbrevHash(h))}
	}
	return &Accountant{
		qb:  qb,
		qf:  qf,
		eps: chunked.FromSlice(st.Eps),
		bpl: chunked.FromSlice(st.BPL),
		fpl: append([]float64(nil), st.FPL...),
	}, nil
}

// abbrevHash keeps error messages readable: content hashes are 64 hex
// chars, of which the first 12 identify the model beyond doubt in
// practice.
func abbrevHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	if h == "" {
		return "(none)"
	}
	return h
}

// Wire encoding. The format is deliberately dumb and stable: a version
// byte, length-prefixed hash strings, length-prefixed float64 slices as
// raw little-endian bits (bit-identical round-trip, including the
// distinction between 0.0 and -0.0), and the cache horizon. Callers
// wanting integrity protection wrap this in a checksummed envelope
// (internal/persist); this layer only guarantees exactness.

// accountantStateVersion is the wire version of AccountantState's
// binary encoding. Bump on any layout change; UnmarshalBinary rejects
// versions it does not know.
const accountantStateVersion = 1

// maxStateElems bounds slice lengths accepted by UnmarshalBinary so a
// corrupt length prefix cannot trigger a huge allocation before the
// truncation is noticed.
const maxStateElems = 1 << 32

// MarshalBinary encodes the state in the stable wire format.
func (st *AccountantState) MarshalBinary() ([]byte, error) {
	if len(st.BackwardHash) > 255 || len(st.ForwardHash) > 255 {
		return nil, &InvalidStateError{Field: "hash", Reason: "content hash longer than 255 bytes"}
	}
	n := 1 + 2 + len(st.BackwardHash) + len(st.ForwardHash) +
		8*3 + 8*(len(st.Eps)+len(st.BPL)+len(st.FPL)) + 8
	out := make([]byte, 0, n)
	out = append(out, accountantStateVersion)
	out = append(out, byte(len(st.BackwardHash)))
	out = append(out, st.BackwardHash...)
	out = append(out, byte(len(st.ForwardHash)))
	out = append(out, st.ForwardHash...)
	for _, s := range [][]float64{st.Eps, st.BPL, st.FPL} {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s)))
		for _, v := range s {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(st.FPLT))
	return out, nil
}

// UnmarshalBinary decodes the stable wire format, rejecting truncated
// input, trailing garbage and unknown versions with *InvalidStateError.
// It only decodes — call Validate (or RestoreAccountant, which does) to
// check the semantic invariants.
func (st *AccountantState) UnmarshalBinary(data []byte) error {
	bad := func(reason string) error {
		return &InvalidStateError{Field: "wire", Reason: reason}
	}
	if len(data) < 1 {
		return bad("empty input")
	}
	if data[0] != accountantStateVersion {
		return bad(fmt.Sprintf("unknown wire version %d (want %d)", data[0], accountantStateVersion))
	}
	data = data[1:]
	readStr := func() (string, error) {
		if len(data) < 1 {
			return "", bad("truncated hash length")
		}
		n := int(data[0])
		data = data[1:]
		if len(data) < n {
			return "", bad("truncated hash")
		}
		s := string(data[:n])
		data = data[n:]
		return s, nil
	}
	readFloats := func() ([]float64, error) {
		if len(data) < 8 {
			return nil, bad("truncated slice length")
		}
		n := binary.LittleEndian.Uint64(data)
		data = data[8:]
		if n > maxStateElems || int(n)*8 > len(data) {
			return nil, bad(fmt.Sprintf("slice length %d exceeds remaining input", n))
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		data = data[8*n:]
		return out, nil
	}
	var decoded AccountantState
	var err error
	if decoded.BackwardHash, err = readStr(); err != nil {
		return err
	}
	if decoded.ForwardHash, err = readStr(); err != nil {
		return err
	}
	if decoded.Eps, err = readFloats(); err != nil {
		return err
	}
	if decoded.BPL, err = readFloats(); err != nil {
		return err
	}
	if decoded.FPL, err = readFloats(); err != nil {
		return err
	}
	if len(data) < 8 {
		return bad("truncated cache horizon")
	}
	fplT := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if fplT > maxStateElems {
		return bad(fmt.Sprintf("cache horizon %d out of range", fplT))
	}
	decoded.FPLT = int(fplT)
	if len(data) != 0 {
		return bad(fmt.Sprintf("%d bytes of trailing garbage", len(data)))
	}
	*st = decoded
	return nil
}
