package service

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
)

// Durable accounting. With a store attached, every session's leakage
// state survives process death: the registry writes a base snapshot at
// creation, appends one journal record per ingestion batch, and on boot
// restores every session from its base plus the journal folded on top.
// Restarting tplserved therefore cannot reset anyone's privacy budget —
// which is the whole point of the accounting.
//
// The journal is the incremental snapshot: <name>.snap holds a full
// base, and <name>.journal everything released since. Only a
// compaction — a fresh base, then an emptied journal — rewrites the
// base, and one is due when at least snapshotEvery steps have passed
// since the last and the journal has outgrown the base. So each batch
// is written once, the bytes written stay amortised O(1) per step
// rather than O(T), and a restore reads at most about twice the base.
// That base and journal are the only layout a restore reads. A
// <name>.delta beside a base is the incremental log older versions kept
// between bases; a restore refuses such a session rather than restore
// the base without it (DESIGN.md §6 has the upgrade path).

// Snapshot and journal schema versions inside the persist envelopes.
// Bump on any change to the encodings. Restore reads these versions,
// plus snapshot v3, and refuses every other one with a "not supported"
// error rather than guessing (DESIGN.md §6).
//
// A snapshot is a sessionState (config, server state, idempotency
// entries): what the session released and the models it accounts
// against, never a leakage series, which restore re-derives by
// charging the budgets. A journal record is a batchRecord carrying a
// whole ingestion batch plus its optional idempotency record, appended
// as ONE checksummed envelope so a torn tail drops a batch and its key
// together — the retry-safety invariant (a key on disk implies all its
// steps are too) depends on exactly that atomicity.
const (
	sessionSchemaVersion = 4
	batchSchemaVersion   = 2
	// schemaWithBaseTag is the snapshot written before v4: the same
	// fields plus the random tag that tied delta records to their base,
	// which decoding skips. Read, no longer written.
	schemaWithBaseTag = 3
)

// defaultSnapshotEvery is the minimum number of steps between
// compactions. A journal record costs O(domain) per step; a compaction
// costs O(users + domain·T) and is only due once the journal outgrows
// the base, so the interval matters only while the base is small.
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
	// JournalSyncGroup: appends from all sessions are committed in
	// self-clocked groups (persist.GroupCommitter): each group takes
	// whatever is queued, fsyncs its distinct journals concurrently and
	// acks after the fsyncs, while the next group queues behind it.
	// Power-loss durable like "step"; the tplserved default.
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
// wiring, like EnablePersistence; must precede any session). In group
// mode a window > 0 lets each commit group linger that long for
// companions; 0 commits whatever is queued at once. Each call installs
// a fresh committer, so a later call's window replaces an earlier one.
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
	stale := r.committer
	r.committer = fresh
	r.pmu.Unlock()
	if stale != nil {
		stale.Close() // flushes pending appends off-lock
	}
	return nil
}

// sessionState is the gob body of a session snapshot: the original
// config (JSON, exactly as submitted — plans and noise modes are
// rebuilt from it rather than serialized), the creation time, the full
// server state, and the idempotency-key memory (oldest-first, so the
// eviction order survives the restart). The same body is a base
// snapshot and a migration's payload.
//
//tplvet:wire v4 schema=9bd3818beedc
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
// toggle). snapshotEvery is the minimum number of steps between
// compactions; <= 0 selects the default.
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

// snapEvery returns the configured minimum steps between compactions.
func (r *Registry) snapEvery() int {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return r.snapshotEvery
}

// initPersistenceLocked opens the session's journal. A new session then
// writes its base, which also truncates whatever the journal held, and
// removes a delta log a session of its name may have left (after the
// base: a crash between the two leaves a session that refuses to
// restore, never a stale log that passes for its history). A
// recovered session writes nothing when its journal ended cleanly: the
// base and the journal already hold its state, and new records append
// behind them. Behind a torn final record the journal is cut back to
// its last verified record first — since replay stops at the first
// unverifiable record, everything appended after it would be lost to
// the next crash. For a recovered session a failed cut is latched, not
// returned: its files already hold its state, and persistBatch compacts
// instead of appending. Caller holds s.stepMu.
func (s *Session) initPersistenceLocked(recovered bool) error {
	j, err := s.store.OpenJournal(s.name)
	if err != nil {
		return err
	}
	s.journal = j
	if !recovered {
		if err := s.snapshotLocked(); err != nil {
			return err
		}
		return s.store.RemoveDeltaLog(s.name)
	}
	if s.replayed.Torn {
		if err := j.TruncateTo(s.replayed.End); err != nil {
			s.journalBad = true
			s.latchPersistErr(err)
		}
	}
	return nil
}

// snapshotLocked compacts: it writes the session's whole state as a
// fresh base, then empties the journal (base first, truncate second: a
// crash between the two leaves journal records the base already
// covers, which restore skips by step index). A successful compaction
// also heals a poisoned journal — the truncate drops whatever partial
// record a failed append left behind. Caller holds s.stepMu.
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
	s.baseBytes, s.logBytes = len(body), 0
	s.persistMu.Lock()
	s.lastSnapT = st.T()
	s.lastSnapAt = s.now()
	s.journalRecords = 0
	s.persistErr = nil
	s.persistMu.Unlock()
	return nil
}

// encodeStateLocked gob-encodes the session's full portable state (the
// body snapshots persist and migration ships over the wire). Caller
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
// optional idempotency record) as a single checksummed journal record,
// and compacts once at least snapshotEvery steps have passed since the
// last base and the journal's bytes exceed the base's. Persist failures
// never fail the batch — the in-memory accounting is already correct —
// but they are latched into the session's health so operators see
// durability degrade instead of discovering it at the next crash.
//
// A failed append may leave a partial record on disk, and nothing
// appended after such a poisoned tail is reachable by replay (recovery
// stops at the first unverifiable record). So after an append failure
// the session stops journaling and instead tries to compact on every
// step until one succeeds, which truncates the poisoned tail and
// restores durability — and the base carries the idempotency memory,
// so exactly-once survives the degradation too. Caller holds s.stepMu.
func (s *Session) persistBatch(results []stream.StepResult, idem *idemRecord) {
	if s.journal == nil {
		return
	}
	if s.journalBad {
		if err := s.snapshotLocked(); err != nil {
			s.latchPersistErr(err)
		}
		return // on success the base covers this batch
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
	s.logBytes += len(body)
	s.persistMu.Lock()
	s.journalRecords += len(results)
	due := lastT-s.lastSnapT >= s.snapshotEvery && s.logBytes > s.baseBytes
	s.persistMu.Unlock()
	if due {
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
// persistence info. ErrNoStore in ephemeral mode; a session retired
// since it was looked up answers as CollectBatch does (retiredErr), not
// with ErrNoStore, although retiring detached its store.
func (s *Session) SnapshotNow() (*PersistInfo, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	if err := s.retiredErr(); err != nil {
		return nil, err
	}
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
// snapshot (so a clean restart replays no journal) and log close.
// Caller holds s.stepMu.
func (s *Session) closePersistenceLocked() error {
	if s.store == nil {
		return nil
	}
	err := s.snapshotLocked()
	if cerr := s.closeLogsLocked(); err == nil {
		err = cerr
	}
	return err
}

// closeLogsLocked closes the journal. Caller holds s.stepMu.
func (s *Session) closeLogsLocked() error {
	var err error
	if s.journal != nil {
		err = s.journal.Close()
		s.journal = nil
	}
	return err
}

// detachPersistenceLocked closes the logs and turns the session's
// persistence off, returning the store its files live in (nil in
// ephemeral mode) for the caller to remove them. Caller holds s.stepMu.
func (s *Session) detachPersistenceLocked() *persist.Store {
	s.closeLogsLocked()
	s.persistMu.Lock()
	store := s.store
	s.store = nil
	s.persistMu.Unlock()
	return store
}

// RestoreAll rebuilds every session found in the attached store: for
// each, the last good snapshot is loaded and verified, the journal is
// folded into it, the plan and noise mode are rebuilt from the stored
// config, the compiled leakage engines are re-attached by content
// through the registry's shared model cache, and the accountants are
// charged the whole history at once. A restore
// writes nothing unless the journal ends in a torn record, which is cut
// off. A session that cannot be restored — a damaged file, a schema
// version this build does not read, a delta log beside its base — is
// skipped with its error reported, and its files stay on disk for
// inspection, so one corrupt tenant cannot keep the rest of the fleet
// down.
//
// Sessions are loaded concurrently, at most GOMAXPROCS at a time, but
// admitted one by one in store.List() order, so which sessions a user
// ceiling refuses, and the order of restored, do not depend on which
// load finishes first.
//
// A tombstone wins over a snapshot of the same name: Migrate writes the
// tombstone before it deletes the local files, so both on disk means a
// crash interrupted a completed hand-off. The target owns the session;
// restoring it here too would split each user's leakage across two
// accountants. Such a session is not registered, and its leftover files
// are removed to finish the retirement. A tombstone that cannot be read
// fails closed: its name is reported in failed, nothing is registered
// under it, and its files stay.
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
	tombs, unreadable, err := store.LoadTombstones()
	if err != nil {
		failed[""] = err
		return nil, failed
	}
	for name, loc := range tombs {
		stripe := r.stripe(name)
		stripe.mu.Lock()
		stripe.tombstones[name] = loc
		stripe.mu.Unlock()
	}
	for name, err := range unreadable {
		failed[name] = err
	}
	var todo []string
	for _, name := range names {
		if _, bad := unreadable[name]; bad {
			continue
		}
		if _, migrated := tombs[name]; migrated {
			if err := store.Remove(name); err != nil {
				failed[name] = err
			}
			continue
		}
		todo = append(todo, name)
	}
	type loaded struct {
		s   *Session
		err error
	}
	done := make([]chan loaded, len(todo))
	for i := range done {
		done[i] = make(chan loaded, 1)
	}
	var next atomic.Int64
	for w := min(runtime.GOMAXPROCS(0), len(todo)); w > 0; w-- {
		go func() {
			for i := int(next.Add(1)) - 1; i < len(todo); i = int(next.Add(1)) - 1 {
				s, err := r.loadSession(store, todo[i])
				done[i] <- loaded{s, err}
			}
		}()
	}
	for i, name := range todo {
		l := <-done[i]
		if l.err == nil {
			l.err = r.admit(l.s, true)
		}
		if l.err != nil {
			failed[name] = l.err
			continue
		}
		restored = append(restored, name)
	}
	if len(restored) > 0 {
		returnRestoreGarbage()
	}
	return restored, failed
}

// returnRestoreGarbage hands the heap a restore leaves behind back to
// the OS when that pays. Decoding several snapshots at once can peak
// the heap far above what the restored sessions keep; but serving grows
// the heap back to the collector's goal (twice the live heap at the
// default GOGC), so releasing memory below the goal only makes the
// first requests fault it back in. After one collection, which measures
// the live heap, the memory is returned only when the heap holds more
// than that goal.
func returnRestoreGarbage() {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/gc/heap/goal:bytes"},
	}
	metrics.Read(s)
	held := s[0].Value.Uint64() + s[1].Value.Uint64() + s[2].Value.Uint64()
	if held > s[3].Value.Uint64() {
		debug.FreeOSMemory()
	}
}

// decodeSessionState verifies a snapshot envelope body and decodes the
// portable session value it carries. A v3 body decodes the same way:
// gob skips the base tag it also stores.
func decodeSessionState(version uint32, body []byte) (st sessionState, err error) {
	if version != sessionSchemaVersion && version != schemaWithBaseTag {
		return st, fmt.Errorf("service: snapshot schema version %d not supported (want %d or %d)", version, sessionSchemaVersion, schemaWithBaseTag)
	}
	if err := gobDecode(body, &st); err != nil {
		return st, fmt.Errorf("service: decoding snapshot: %w", err)
	}
	if st.Server == nil {
		return st, fmt.Errorf("service: snapshot has no server state")
	}
	return st, nil
}

// sessionFromState rebuilds a decoded session value into a session: its
// stored config, its server with the plan and noise mode reconstructed,
// the compiled engines re-attached by content through the shared model
// cache and the leakage recharged from the stored budgets. Both boot-time restore and cross-shard import go
// through it.
func (r *Registry) sessionFromState(st sessionState) (*Session, error) {
	var cfg SessionConfig
	if err := json.Unmarshal(st.ConfigJSON, &cfg); err != nil {
		return nil, fmt.Errorf("service: decoding stored config: %w", err)
	}
	if err := checkName(cfg.Name); err != nil {
		return nil, err
	}
	opts := stream.RestoreOptions{Cache: r.models}
	if cfg.Plan != nil {
		plan, err := cfg.Plan.buildPlan(cfg.firstModel())
		if err != nil {
			return nil, fmt.Errorf("service: rebuilding plan: %w", err)
		}
		opts.Plan = plan
	}
	if st.Server.RNG.Provenance != stream.NoiseSeeded {
		var err error
		if opts.ReseedSeed, err = randomSeed(); err != nil {
			return nil, err
		}
	}
	srv, err := stream.RestoreServer(st.Server, opts)
	if err != nil {
		return nil, err
	}
	return r.newSession(&cfg, st.ConfigJSON, st.Created, srv), nil
}

// adoptIdem puts stored idempotency records on the memory, oldest
// first (their order is the eviction order). Entries naming steps
// beyond the restored history are dropped — their batch never fully
// landed, so a retry must be applied, not replayed.
func (s *Session) adoptIdem(recs []idemRecord) {
	for _, rec := range recs {
		if rec.FirstT >= 1 && rec.lastT() <= s.srv.T() {
			s.idem.put(rec)
		}
	}
}

// foldJournal folds the session's journal into a decoded base, one
// batch record (steps + idempotency record) at a time, and returns the
// idempotency records to layer over the base's memory, in journal
// order. Records at or before the base are expected (a crash between a
// compaction's base and its journal truncate) and skipped, their key
// with them: the base's memory already accounts for it, evicted or not.
// A gap or a schema mismatch beyond it fails the session, and so does
// damage followed by more records; a torn final record ends the journal
// (res reports where, for admit to cut it off).
func foldJournal(store *persist.Store, name string, st *sessionState) (tail []idemRecord, res persist.ReplayResult, logBytes int, err error) {
	baseT := st.Server.T()
	res, err = store.ReplayJournal(name, func(version uint32, body []byte) error {
		if version != batchSchemaVersion {
			return fmt.Errorf("service: journal schema version %d not supported (want %d)", version, batchSchemaVersion)
		}
		var rec batchRecord
		if err := gobDecode(body, &rec); err != nil {
			return fmt.Errorf("service: decoding journal batch record: %w", err)
		}
		logBytes += len(body)
		for _, step := range rec.Steps {
			if step.T <= baseT {
				continue
			}
			if err := st.Server.AppendStep(step); err != nil {
				return err
			}
		}
		if rec.Idem != nil && rec.Idem.FirstT > baseT {
			tail = append(tail, *rec.Idem)
		}
		return nil
	})
	if err == nil && res.Corrupt {
		err = fmt.Errorf("service: journal is damaged after %d intact records", res.Records)
	}
	return tail, res, logBytes, err
}

// loadSession loads, verifies and folds one session from the store,
// ready for admit: base and journal make one state, which one
// RestoreServer charges. A delta log beside the base fails the session:
// its records hold steps the base does not, so the base and journal
// alone could restore a shorter history than was charged. It changes
// no registry state and writes nothing (the shared model cache aside,
// which is safe for concurrent use), so RestoreAll runs it for several
// sessions at once.
func (r *Registry) loadSession(store *persist.Store, name string) (*Session, error) {
	legacy, err := store.HasDeltaLog(name)
	if err != nil {
		return nil, err
	}
	if legacy {
		return nil, fmt.Errorf("service: session %q has a delta log (%s.delta), which this version does not read: start the previous version on this state dir and shut it down cleanly, which folds the log into a fresh base, then start this one", name, name)
	}
	version, body, err := store.LoadSnapshot(name)
	if err != nil {
		return nil, err
	}
	st, err := decodeSessionState(version, body)
	if err != nil {
		return nil, err
	}
	baseT := st.Server.T()
	idemTail, res, journalBytes, err := foldJournal(store, name, &st)
	if err != nil {
		return nil, err
	}
	s, err := r.sessionFromState(st)
	if err != nil {
		return nil, err
	}
	if s.name != name {
		return nil, fmt.Errorf("service: snapshot file %q holds config for session %q", name, s.name)
	}
	s.adoptIdem(st.Idem)
	s.adoptIdem(idemTail)
	s.replayed = res
	s.baseBytes, s.logBytes = len(body), journalBytes
	// The health bookkeeping describes the files as found.
	s.lastSnapT, s.lastSnapAt, s.journalRecords = baseT, r.now(), s.srv.T()-baseT
	if mod, _, err := store.SnapshotStat(name); err == nil {
		s.lastSnapAt = mod
	}
	return s, nil
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
	// SnapshotEvery is the minimum number of steps between compactions.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// LastSnapshotAgeSeconds is the age of the *stalest* session base
	// (its last compaction): everything since is in its journal, which a
	// restore folds. Omitted when no session exists.
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
