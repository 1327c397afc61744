package service

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
)

// Durable accounting. With a store attached, every session's leakage
// state survives process death: the registry writes an initial snapshot
// at creation, appends one journal record per ingestion batch, coalesces
// full snapshots every snapshotEvery steps, and on boot restores every
// session from last-good-snapshot + replayed journal tail. Restarting
// tplserved therefore cannot reset anyone's privacy budget — which is
// the whole point of the accounting.

// Snapshot/journal schema versions inside the persist envelopes. Bump
// on any change to the encodings. Restore reads exactly these versions
// and refuses every other one with a "not supported" error rather than
// guessing (DESIGN.md §6).
//
// A snapshot is a sessionState (config, server state, idempotency
// entries). A journal record is a batchRecord carrying a whole
// ingestion batch plus its optional idempotency record, appended as ONE
// checksummed envelope so a torn tail drops a batch and its key
// together — the retry-safety invariant (a key on disk implies all its
// steps are too) depends on exactly that atomicity.
const (
	sessionSchemaVersion = 2
	batchSchemaVersion   = 2
)

// defaultSnapshotEvery is the snapshot coalescing interval in steps: a
// full snapshot costs O(users + cohorts·T), a journal record O(domain),
// so snapshots ride along only every N steps and recovery replays at
// most N records.
const defaultSnapshotEvery = 64

// JournalSyncMode selects how journal appends reach stable storage.
// All three modes replay to bit-identical state; they differ only in
// which crashes can lose the (never-acknowledged-as-durable) tail.
type JournalSyncMode string

const (
	// JournalSyncNone: plain appends, no fsync. Process death never
	// loses page-cache data; whole-machine power loss can lose the
	// un-synced tail. The registry default (the pre-group-commit
	// behavior).
	JournalSyncNone JournalSyncMode = "none"
	// JournalSyncGroup: appends are coalesced across all sessions into
	// one fsync per commit group with a bounded latency window
	// (persist.GroupCommitter). Power-loss durable at a fraction of
	// per-append fsync cost; the tplserved default.
	JournalSyncGroup JournalSyncMode = "group"
	// JournalSyncStep: one fsync per batch append — the strictest and
	// slowest mode, kept as the differential-testing reference.
	JournalSyncStep JournalSyncMode = "step"
)

// ParseJournalSyncMode validates a wire/flag spelling of a sync mode.
func ParseJournalSyncMode(s string) (JournalSyncMode, error) {
	switch m := JournalSyncMode(s); m {
	case JournalSyncNone, JournalSyncGroup, JournalSyncStep:
		return m, nil
	default:
		return "", fmt.Errorf("service: unknown journal sync mode %q (want none, group or step)", s)
	}
}

// SetJournalSync selects the journal durability mode (boot-time
// wiring, like EnablePersistence; must precede any session). window
// bounds how long a group-commit append may wait for companions
// (<= 0 selects the default).
func (r *Registry) SetJournalSync(mode JournalSyncMode, window time.Duration) error {
	if _, err := ParseJournalSyncMode(string(mode)); err != nil {
		return err
	}
	if n := r.Len(); n > 0 {
		return fmt.Errorf("service: journal sync must be configured before sessions exist (%d registered)", n)
	}
	// Construct and close committers outside pmu: pmu is the
	// never-blocks bookkeeping lock (healthz reads it), so even
	// boot-time persist-layer calls stay off it.
	var fresh *persist.GroupCommitter
	if mode == JournalSyncGroup {
		fresh = persist.NewGroupCommitter(window)
	}
	r.pmu.Lock()
	r.syncMode = mode
	var stale *persist.GroupCommitter
	if mode == JournalSyncGroup {
		if r.committer == nil {
			r.committer, fresh = fresh, nil
		}
	} else {
		stale, r.committer = r.committer, nil
	}
	r.pmu.Unlock()
	if fresh != nil {
		fresh.Close() // a committer was already installed; discard the spare
	}
	if stale != nil {
		stale.Close() // flushes pending appends off-lock
	}
	return nil
}

// sessionState is the gob body of a session snapshot: the original
// config (JSON, exactly as submitted — plans and noise modes are
// rebuilt from it rather than serialized), the creation time, the full
// server state, and the idempotency-key memory (oldest-first, so the
// LRU order survives the restart).
//
//tplvet:wire v2 schema=9bd3818beedc
type sessionState struct {
	ConfigJSON []byte
	Created    time.Time
	Server     *stream.ServerState
	Idem       []idemRecord
}

// batchRecord is the journal body: one ingestion batch and its
// optional idempotency record, durable or lost as a unit.
//
//tplvet:wire v2 schema=25063561ee9b
type batchRecord struct {
	Steps []stream.StepRecord
	Idem  *idemRecord
}

// gobEncode/gobDecode are the body codec. Gob encodes float64 as raw
// bits, so the wire round-trip is bit-identical — the restore-equality
// guarantee needs exactly that.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// EnablePersistence attaches a snapshot store to the registry. Must be
// called before any session exists (boot-time wiring, not a runtime
// toggle); snapshotEvery <= 0 selects the default interval.
func (r *Registry) EnablePersistence(store *persist.Store, snapshotEvery int) error {
	if snapshotEvery <= 0 {
		snapshotEvery = defaultSnapshotEvery
	}
	if n := r.Len(); n > 0 {
		return fmt.Errorf("service: persistence must be enabled before sessions exist (%d registered)", n)
	}
	r.pmu.Lock()
	defer r.pmu.Unlock()
	r.store = store
	r.snapshotEvery = snapshotEvery
	return nil
}

// Store returns the attached snapshot store, or nil in ephemeral mode.
func (r *Registry) Store() *persist.Store {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return r.store
}

// snapEvery returns the configured snapshot coalescing interval.
func (r *Registry) snapEvery() int {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return r.snapshotEvery
}

// initPersistenceLocked writes the session's initial snapshot and opens
// its journal. Caller holds s.stepMu; the session may already be
// visible in the registry, so holding stepMu is what keeps any early
// step from slipping past the journal.
func (s *Session) initPersistenceLocked(store *persist.Store, snapshotEvery int) error {
	// store doubles as persistInfo's "is persistence on" flag and is
	// read under persistMu there, so its writes hold both mutexes.
	s.persistMu.Lock()
	s.store = store
	s.persistMu.Unlock()
	s.snapshotEvery = snapshotEvery
	if err := s.snapshotLocked(); err != nil {
		return err
	}
	j, err := store.OpenJournal(s.name)
	if err != nil {
		return err
	}
	s.journal = j
	return nil
}

// snapshotLocked captures and durably writes the session's full state,
// then resets the journal (snapshot first, reset second: a crash
// between the two leaves journal records the snapshot already covers,
// which replay skips by step index). A successful snapshot also heals
// a poisoned journal — the reset truncates whatever partial record a
// failed append left behind. Caller holds s.stepMu.
func (s *Session) snapshotLocked() error {
	st := s.srv.Snapshot()
	body, err := s.encodeStateLocked(st)
	if err != nil {
		return err
	}
	if err := s.store.SaveSnapshot(s.name, sessionSchemaVersion, body); err != nil {
		return err
	}
	if s.journal != nil {
		if err := s.journal.Reset(); err != nil {
			return err
		}
	}
	s.journalBad = false
	s.persistMu.Lock()
	s.lastSnapT = st.T()
	s.lastSnapAt = s.now()
	s.journalRecords = 0
	s.persistErr = nil
	s.persistMu.Unlock()
	return nil
}

// encodeStateLocked gob-encodes the session's full portable state (the
// same body snapshots persist; migration ships it over the wire). Caller
// holds s.stepMu; st is a fresh s.srv.Snapshot().
func (s *Session) encodeStateLocked(st *stream.ServerState) ([]byte, error) {
	body, err := gobEncode(sessionState{ConfigJSON: s.cfgJSON, Created: s.created, Server: st, Idem: s.idem.entries()})
	if err != nil {
		return nil, fmt.Errorf("service: encoding snapshot: %w", err)
	}
	return body, nil
}

// latchPersistErr records a persist failure for health reporting.
func (s *Session) latchPersistErr(err error) {
	s.persistMu.Lock()
	s.persistErr = err
	s.persistMu.Unlock()
}

// persistBatch journals one just-landed ingestion batch (with its
// optional idempotency record) as a single checksummed journal record
// and coalesces a snapshot every snapshotEvery steps. Persist failures
// never fail the batch — the in-memory accounting is already correct —
// but they are latched into the session's health so operators see
// durability degrade instead of discovering it at the next crash.
//
// A failed append may leave a partial record on disk, and nothing
// appended after such a poisoned tail is reachable by replay (recovery
// stops at the first unverifiable record). So after an append failure
// the session stops journaling and instead tries to resnapshot on
// every step until one succeeds, which truncates the poisoned tail and
// restores durability — and the snapshot carries the idempotency
// memory, so exactly-once survives the degradation too. Caller holds
// s.stepMu.
func (s *Session) persistBatch(results []stream.StepResult, idem *idemRecord) {
	if s.journal == nil {
		return
	}
	if s.journalBad {
		if err := s.snapshotLocked(); err != nil {
			s.latchPersistErr(err)
		}
		return // on success the snapshot covers this batch
	}
	rec := batchRecord{Steps: make([]stream.StepRecord, len(results)), Idem: idem}
	for i, r := range results {
		rec.Steps[i] = stream.StepRecord{T: r.T, Eps: r.Eps, Published: r.Published, NoiseDraws: r.Draws}
	}
	body, err := gobEncode(rec)
	if err == nil {
		err = s.appendJournal(batchSchemaVersion, body)
	}
	lastT := results[len(results)-1].T
	if err != nil {
		s.latchPersistErr(fmt.Errorf("service: journaling batch ending at step %d: %w", lastT, err))
		s.journalBad = true
		if serr := s.snapshotLocked(); serr != nil {
			s.latchPersistErr(serr)
		}
		return
	}
	s.persistMu.Lock()
	s.journalRecords += len(results)
	snapDue := lastT-s.lastSnapT >= s.snapshotEvery
	s.persistMu.Unlock()
	if snapDue {
		if err := s.snapshotLocked(); err != nil {
			s.latchPersistErr(err)
		}
	}
}

// appendJournal writes one record through the session's configured
// sync mode: plain append (none), the shared group committer (group —
// blocks until the group's fsync covers the record), or a private
// append+fsync (step). All modes return only after whatever durability
// the mode promises holds, so persistBatch's poisoned-tail handling is
// mode-independent. Caller holds s.stepMu, which is what limits each
// journal to one outstanding group-commit request and so keeps the
// on-disk record order equal to step order.
func (s *Session) appendJournal(version uint32, body []byte) error {
	switch s.syncMode {
	case JournalSyncGroup:
		if s.committer != nil {
			return s.committer.Append(s.journal, version, body)
		}
		fallthrough // configured group but no committer: degrade to step
	case JournalSyncStep:
		if err := s.journal.Append(version, body); err != nil {
			return err
		}
		return s.journal.Sync()
	default:
		return s.journal.Append(version, body)
	}
}

// PersistInfo is the session-summary digest of persistence health.
type PersistInfo struct {
	LastSnapshotT   int       `json:"last_snapshot_t"`
	LastSnapshotAt  time.Time `json:"last_snapshot_at"`
	JournalRecords  int       `json:"journal_records"`
	NoiseProvenance string    `json:"noise_provenance"`
	Error           string    `json:"error,omitempty"`
}

// persistInfo snapshots the persistence bookkeeping (nil in ephemeral
// mode). It takes only persistMu, never stepMu: health probes must not
// block behind an in-flight collect or an fsync'ing snapshot.
func (s *Session) persistInfo() *PersistInfo {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.store == nil {
		return nil
	}
	info := &PersistInfo{
		LastSnapshotT:   s.lastSnapT,
		LastSnapshotAt:  s.lastSnapAt,
		JournalRecords:  s.journalRecords,
		NoiseProvenance: s.srv.NoiseState().Provenance,
	}
	if s.persistErr != nil {
		info.Error = s.persistErr.Error()
	}
	return info
}

// SnapshotNow forces an immediate snapshot (the POST
// /v2/sessions/{name}/snapshot endpoint) and returns the resulting
// persistence info. ErrNoStore in ephemeral mode.
func (s *Session) SnapshotNow() (*PersistInfo, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	if s.store == nil {
		return nil, ErrNoStore
	}
	if err := s.snapshotLocked(); err != nil {
		s.latchPersistErr(err)
		return nil, err
	}
	return s.persistInfo(), nil
}

// closePersistenceLocked finishes a session's durability: one final
// snapshot (so a clean restart replays nothing) and journal close.
// Caller holds s.stepMu.
func (s *Session) closePersistenceLocked() error {
	if s.store == nil {
		return nil
	}
	err := s.snapshotLocked()
	if s.journal != nil {
		if cerr := s.journal.Close(); err == nil {
			err = cerr
		}
		s.journal = nil
	}
	return err
}

// dropPersistenceLocked closes the journal and deletes the session's
// files (session deletion, not shutdown). Caller holds s.stepMu.
func (s *Session) dropPersistenceLocked() error {
	if s.store == nil {
		return nil
	}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	store := s.store
	s.persistMu.Lock()
	s.store = nil
	s.persistMu.Unlock()
	return store.Remove(s.name)
}

// RestoreAll rebuilds every session found in the attached store: for
// each, the last good snapshot is loaded and verified, the plan and
// noise mode are rebuilt from the stored config, the compiled leakage
// engines are re-attached by content hash through the registry's
// shared model cache, and the journal tail is replayed on top. A
// session that cannot be restored is skipped with its error reported —
// its files stay on disk for inspection — so one corrupt tenant cannot
// keep the rest of the fleet down.
//
// A tombstone wins over a snapshot of the same name: Migrate writes the
// tombstone before it deletes the local files, so both on disk means a
// crash interrupted a completed hand-off. The target owns the session;
// restoring it here too would split each user's leakage across two
// accountants. Such a session is not registered, and its leftover files
// are removed to finish the retirement.
func (r *Registry) RestoreAll() (restored []string, failed map[string]error) {
	failed = make(map[string]error)
	store := r.Store()
	if store == nil {
		return nil, failed
	}
	names, err := store.List()
	if err != nil {
		failed[""] = err
		return nil, failed
	}
	// Reload migration tombstones first: a restarted shard must keep
	// redirecting traffic for sessions it handed off before the crash.
	tombs, terr := store.LoadTombstones()
	if terr != nil {
		failed[""] = terr
	}
	for name, loc := range tombs {
		stripe := r.stripe(name)
		stripe.mu.Lock()
		stripe.tombstones[name] = loc
		stripe.mu.Unlock()
	}
	for _, name := range names {
		if _, migrated := tombs[name]; migrated {
			if err := store.Remove(name); err != nil {
				failed[name] = err
			}
			continue
		}
		if err := r.restoreOne(store, name); err != nil {
			failed[name] = err
			continue
		}
		restored = append(restored, name)
	}
	return restored, failed
}

// decodeSessionState verifies a snapshot envelope body and rebuilds the
// portable session value it carries: the stored config, and a live
// server with its plan and noise mode reconstructed and its compiled
// engines re-attached by content hash through the shared model cache.
// Both boot-time restore and cross-shard import go through it.
func (r *Registry) decodeSessionState(version uint32, body []byte) (st sessionState, cfg SessionConfig, srv *stream.Server, err error) {
	if version != sessionSchemaVersion {
		return st, cfg, nil, fmt.Errorf("service: snapshot schema version %d not supported (want %d)", version, sessionSchemaVersion)
	}
	if err := gobDecode(body, &st); err != nil {
		return st, cfg, nil, fmt.Errorf("service: decoding snapshot: %w", err)
	}
	if st.Server == nil {
		return st, cfg, nil, fmt.Errorf("service: snapshot has no server state")
	}
	if err := json.Unmarshal(st.ConfigJSON, &cfg); err != nil {
		return st, cfg, nil, fmt.Errorf("service: decoding stored config: %w", err)
	}
	opts := stream.RestoreOptions{Cache: r.models}
	if cfg.Plan != nil {
		plan, err := cfg.Plan.buildPlan(cfg.firstModel())
		if err != nil {
			return st, cfg, nil, fmt.Errorf("service: rebuilding plan: %w", err)
		}
		opts.Plan = plan
	}
	if st.Server.RNG.Provenance != stream.NoiseSeeded {
		if opts.ReseedSeed, err = randomSeed(); err != nil {
			return st, cfg, nil, err
		}
	}
	srv, err = stream.RestoreServer(st.Server, opts)
	if err != nil {
		return st, cfg, nil, err
	}
	return st, cfg, srv, nil
}

// restoreOne loads, verifies, replays and registers one session.
func (r *Registry) restoreOne(store *persist.Store, name string) error {
	version, body, err := store.LoadSnapshot(name)
	if err != nil {
		return err
	}
	st, cfg, srv, err := r.decodeSessionState(version, body)
	if err != nil {
		return err
	}
	if cfg.Name != name {
		return fmt.Errorf("service: snapshot file %q holds config for session %q", name, cfg.Name)
	}
	snapT := srv.T()
	// Replay the journal tail, one batch record (steps + idempotency
	// record) at a time. Step records at or before the snapshot are
	// expected (crash between snapshot and journal reset) and skipped;
	// gaps or schema mismatches beyond it fail the session. Idempotency
	// records are collected in journal order and layered over the
	// snapshot's entries below.
	var idemTail []idemRecord
	replayedSteps := 0
	_, err = store.ReplayJournal(name, func(version uint32, body []byte) error {
		if version != batchSchemaVersion {
			return fmt.Errorf("service: journal schema version %d not supported (want %d)", version, batchSchemaVersion)
		}
		var rec batchRecord
		if err := gobDecode(body, &rec); err != nil {
			return fmt.Errorf("service: decoding journal batch record: %w", err)
		}
		for _, step := range rec.Steps {
			if step.T <= snapT {
				continue
			}
			replayedSteps++
			if err := srv.ApplyStep(step); err != nil {
				return err
			}
		}
		if rec.Idem != nil {
			idemTail = append(idemTail, *rec.Idem)
		}
		return nil
	})
	if err != nil {
		return err
	}
	snapAt := r.now()
	if mod, _, err := store.SnapshotStat(name); err == nil {
		snapAt = mod
	}
	r.pmu.Lock()
	every, mode, committer := r.snapshotEvery, r.syncMode, r.committer
	r.pmu.Unlock()
	s := &Session{
		name:           name,
		created:        st.Created,
		srv:            srv,
		now:            r.now,
		sink:           &r.decisions,
		modelRevision:  cfg.ModelRevision,
		store:          store,
		cfgJSON:        st.ConfigJSON,
		snapshotEvery:  every,
		syncMode:       mode,
		committer:      committer,
		lastSnapT:      snapT,
		lastSnapAt:     snapAt,
		journalRecords: replayedSteps,
	}
	// Rebuild the idempotency memory: snapshot entries first (their
	// stored order is the LRU order), then the journal tail's. Entries
	// naming steps beyond the restored history are dropped — their batch
	// never fully landed, so a retry must be applied, not replayed.
	for _, rec := range append(append([]idemRecord(nil), st.Idem...), idemTail...) {
		if rec.FirstT >= 1 && rec.lastT() <= srv.T() {
			s.idem.put(rec)
		}
	}
	j, err := store.OpenJournal(name)
	if err != nil {
		return err
	}
	s.journal = j
	// Bake the replayed tail into a fresh snapshot and reset the
	// journal before accepting new steps. Without this, the journal is
	// reopened in append mode behind whatever the crash left — and if
	// that includes a torn record, everything appended after it would
	// be unreachable by the next recovery (replay stops at the first
	// unverifiable record): a second crash would then silently lose
	// acknowledged steps. The session is not yet visible, so no lock
	// ordering concerns.
	if err := s.snapshotLocked(); err != nil {
		s.journalBad = true // persistBatch retries the snapshot instead of appending
		s.latchPersistErr(err)
	}
	if err := r.reserveUsers(srv.Users()); err != nil {
		j.Close()
		return err
	}
	stripe := r.stripe(name)
	stripe.mu.Lock()
	if _, taken := stripe.sessions[name]; taken {
		stripe.mu.Unlock()
		r.totalUsers.Add(-int64(srv.Users()))
		j.Close()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	stripe.sessions[name] = s
	stripe.mu.Unlock()
	return nil
}

// Close finishes every session's durability (final snapshot + journal
// close) and stops the group committer. Called on graceful shutdown;
// ephemeral registries no-op.
func (r *Registry) Close() error {
	var firstErr error
	for _, s := range r.List() {
		s.stepMu.Lock()
		if err := s.closePersistenceLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.stepMu.Unlock()
	}
	// After the loop no session appends anymore (each was closed under
	// its stepMu), so the committer drains cleanly.
	r.pmu.Lock()
	gc := r.committer
	r.committer = nil
	r.pmu.Unlock()
	if gc != nil {
		if err := gc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PersistenceHealth is the operator's view of durability, reported by
// GET /healthz.
type PersistenceHealth struct {
	// Mode is "durable" (a state dir is attached) or "ephemeral".
	Mode string `json:"mode"`
	// StateDir is the snapshot directory (durable mode only).
	StateDir string `json:"state_dir,omitempty"`
	// SnapshotEvery is the coalescing interval in steps.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// LastSnapshotAgeSeconds is the age of the *stalest* session
	// snapshot — the worst-case recovery window. Omitted when no
	// session exists.
	LastSnapshotAgeSeconds *float64 `json:"last_snapshot_age_seconds,omitempty"`
	// SessionsWithErrors counts sessions whose last persist attempt
	// failed (non-zero means durability is degraded).
	SessionsWithErrors int `json:"sessions_with_errors,omitempty"`
}

// PersistenceHealth summarizes durability across all sessions.
func (r *Registry) PersistenceHealth() PersistenceHealth {
	store := r.Store()
	if store == nil {
		return PersistenceHealth{Mode: "ephemeral"}
	}
	h := PersistenceHealth{Mode: "durable", StateDir: store.Dir(), SnapshotEvery: r.snapEvery()}
	now := r.now()
	var oldest time.Time
	for _, s := range r.List() {
		info := s.persistInfo()
		if info == nil {
			continue
		}
		if info.Error != "" {
			h.SessionsWithErrors++
		}
		if oldest.IsZero() || info.LastSnapshotAt.Before(oldest) {
			oldest = info.LastSnapshotAt
		}
	}
	if !oldest.IsZero() {
		age := now.Sub(oldest).Seconds()
		h.LastSnapshotAgeSeconds = &age
	}
	return h
}
