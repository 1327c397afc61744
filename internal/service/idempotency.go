package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/stream"
)

// Idempotent batch ingestion. A v2 steps request may carry an
// Idempotency-Key header; the session remembers, per key, which steps
// that batch landed (the last idemCacheSize keys, oldest evicted
// first), so a client retrying after an ambiguous failure — timeout,
// dropped connection, 5xx — gets the original batch's results back
// instead of double-charging every user's privacy budget. The memory
// rides the existing durability pipeline: the whole batch (step
// records + idempotency record) is journaled as one checksummed record
// and a base snapshot carries the whole memory, so exactly-once holds
// across crashes too — a torn journal tail drops a batch and its key together,
// and a batch that survived keeps its key. Replayed responses are
// reconstructed from the published history rather than stored, so an
// entry costs O(key + batch length), not O(batch x domain).
//
// Eviction is insertion-ordered (FIFO), not least-recently-used: a
// replay hit changes nothing, so the memory is a pure function of the
// keyed batches that landed, in order, and replaying those additions
// on restore rebuilds it entry for entry, order included, with no
// record of reads. A retry arrives soon after its original, which is
// what FIFO keeps.

// idemCacheSize bounds the per-session key memory. At the default
// batch sizes this is hours of continuous retry-safe ingestion; evicted
// keys degrade to at-most-once (a retry of an evicted batch is applied
// again), which is why the bound is generous.
const idemCacheSize = 256

// idemRecord is one remembered batch: the key, a digest of the request
// content (so a reused key with a different body is rejected rather
// than silently answered with someone else's results), and the span of
// steps the batch landed.
//
//tplvet:wire v2 schema=2e9d7b2c3d14
type idemRecord struct {
	Key     string
	Hash    [32]byte
	FirstT  int
	Planned []bool
}

// lastT returns the final 1-based step the batch landed.
func (e *idemRecord) lastT() int { return e.FirstT + len(e.Planned) - 1 }

// idemCache is a FIFO of at most idemCacheSize idemRecords: a ring
// (grown up to the bound, then overwritten oldest-first) plus a key
// index into it. Not safe for concurrent use; the owning session
// serializes access under stepMu.
type idemCache struct {
	ring  []idemRecord
	head  int // slot of the oldest record once the ring is full
	byKey map[string]int
}

// get returns the record for key. A hit does not refresh the key.
func (c *idemCache) get(key string) (*idemRecord, bool) {
	i, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	return &c.ring[i], true
}

// put appends a record, evicting the oldest past the capacity. A key
// already present keeps its slot and takes the new record; the live
// path never does that (it answers a known key from get), only a
// restore layering records that repeat one.
func (c *idemCache) put(rec idemRecord) {
	if c.byKey == nil {
		c.byKey = make(map[string]int)
	}
	if i, ok := c.byKey[rec.Key]; ok {
		c.ring[i] = rec
		return
	}
	if len(c.ring) < idemCacheSize {
		c.byKey[rec.Key] = len(c.ring)
		c.ring = append(c.ring, rec)
		return
	}
	delete(c.byKey, c.ring[c.head].Key)
	c.ring[c.head] = rec
	c.byKey[rec.Key] = c.head
	c.head = (c.head + 1) % idemCacheSize
}

// entries returns the cache contents oldest-first (the order a base
// snapshot stores and a restore re-puts).
func (c *idemCache) entries() []idemRecord {
	out := make([]idemRecord, 0, len(c.ring))
	for i := range c.ring {
		out = append(out, c.ring[(c.head+i)%len(c.ring)])
	}
	return out
}

// batchHash digests a batch's content deterministically: step framing,
// presence bits, and every value, so any semantic difference — values
// vs counts, a different eps, one changed entry — changes the hash.
func batchHash(steps []stream.BatchStep) [32]byte {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(len(steps)))
	for _, st := range steps {
		switch {
		case st.Values != nil:
			h.Write([]byte{'v'})
			writeInt(int64(len(st.Values)))
			for _, v := range st.Values {
				writeInt(int64(v))
			}
		case st.Counts != nil:
			h.Write([]byte{'c'})
			writeInt(int64(len(st.Counts)))
			for _, v := range st.Counts {
				writeInt(int64(v))
			}
		default:
			h.Write([]byte{'n'})
		}
		if st.Eps != nil {
			h.Write([]byte{'e'})
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(*st.Eps))
			h.Write(buf[:])
		} else {
			h.Write([]byte{'p'})
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// CollectBatch is the unified ingestion endpoint the steps handler
// calls: it applies a validated-atomic batch of steps (stream.Server's
// contract), persists it as one journal record, remembers it under the
// idempotency key (when one is given), and notifies live watchers. A
// replayed batch — same key, same content — re-answers from history
// without touching any accountant; a reused key with different content
// is an errIdemConflict.
func (s *Session) CollectBatch(key string, steps []stream.BatchStep) (results []stream.StepResult, replayed bool, err error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	// A writer that raced a delete or a migration and still holds this
	// pointer is refused before touching any accountant: the session's
	// files are gone, so applying here would acknowledge a lost write.
	if err := s.retiredErr(); err != nil {
		return nil, false, err
	}
	// One atomic load decides whether this batch is audited; the
	// disabled path pays nothing else (decision.go).
	sink := s.decisionSink()
	var hash [32]byte
	if key != "" {
		hash = batchHash(steps)
		if rec, ok := s.idem.get(key); ok {
			if rec.Hash != hash {
				err := fmt.Errorf("%w: key %q", errIdemConflict, key)
				if sink != nil {
					s.recordRefusal(sink, len(steps), key, err)
				}
				return nil, false, err
			}
			res, err := s.recordedResults(rec)
			if err == nil && sink != nil {
				s.recordReplay(sink, rec.FirstT, rec.lastT(), key)
			}
			return res, true, err
		}
	}
	results, err = s.srv.CollectBatch(steps)
	if err != nil {
		if sink != nil {
			s.recordRefusal(sink, len(steps), key, err)
		}
		return nil, false, err
	}
	var rec *idemRecord
	if key != "" {
		planned := make([]bool, len(results))
		for i, r := range results {
			planned[i] = r.Planned
		}
		rec = &idemRecord{Key: key, Hash: hash, FirstT: results[0].T, Planned: planned}
		s.idem.put(*rec)
	}
	s.persistBatch(results, rec)
	s.notifyStepsLocked(results)
	if sink != nil {
		epsSum, epsMax := 0.0, 0.0
		for _, r := range results {
			epsSum += r.Eps
			if r.Eps > epsMax {
				epsMax = r.Eps
			}
		}
		s.recordSteps(sink, results[0].T, results[len(results)-1].T, epsSum, epsMax, len(results), key)
	}
	return results, false, nil
}

// recordedResults reconstructs a remembered batch's results from the
// retained history (budgets + published histograms), bit-identical to
// the original response.
func (s *Session) recordedResults(rec *idemRecord) ([]stream.StepResult, error) {
	from, to := rec.FirstT, rec.FirstT+len(rec.Planned)-1
	eps, pubs, err := s.srv.PublishedRange(from, to)
	if err != nil {
		return nil, fmt.Errorf("service: replaying idempotent batch at t=%d..%d: %w", from, to, err)
	}
	out := make([]stream.StepResult, len(pubs))
	for i := range out {
		out[i] = stream.StepResult{T: from + i, Eps: eps[i], Planned: rec.Planned[i], Published: pubs[i]}
	}
	return out, nil
}
