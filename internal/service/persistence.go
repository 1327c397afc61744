package service

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
)

// Durable accounting. With a store attached, every session's leakage
// state survives process death: the registry writes an initial snapshot
// at creation, appends one journal record per ingestion batch,
// coalesces a snapshot every snapshotEvery steps, and on boot restores
// every session from last-good-snapshot + delta log + replayed journal
// tail. Restarting tplserved therefore cannot reset anyone's privacy
// budget — which is the whole point of the accounting.
//
// A coalesced snapshot is incremental: <name>.snap holds a full base,
// and each later snapshot appends only what changed since the previous
// one (a sessionDelta) to <name>.delta. When the delta log would grow
// past the base, the next snapshot compacts instead — a fresh base,
// then an emptied delta log — so the bytes written stay amortised O(1)
// per step rather than O(T).

// Snapshot, delta-log and journal schema versions inside the persist
// envelopes. Bump on any change to the encodings. Restore reads these
// versions, plus snapshot v2 and delta v1 and v2, and refuses every
// other one with a "not supported" error rather than guessing
// (DESIGN.md §6).
//
// A snapshot is a sessionState (config, server state, idempotency
// entries): what the session released and the models it accounts
// against, never a leakage series, which restore re-derives by
// charging the budgets. A delta-log record is a sessionDelta. A
// journal record is a batchRecord carrying a whole ingestion batch plus
// its optional idempotency record, appended as ONE checksummed envelope
// so a torn tail drops a batch and its key together — the retry-safety
// invariant (a key on disk implies all its steps are too) depends on
// exactly that atomicity.
const (
	sessionSchemaVersion = 3
	batchSchemaVersion   = 2
	deltaSchemaVersion   = 3
	// schemaWithSeries is the snapshot and delta record written before
	// v3: the same fields plus every cohort's stored leakage series,
	// which decoding skips. Read, no longer written.
	schemaWithSeries = 2
	// deltaSchemaWholeIdem is the delta record written before v2: a v2
	// record whose Idem is the whole idempotency memory, which replaces
	// the memory on restore instead of extending it. Read, no longer
	// written.
	deltaSchemaWholeIdem = 1
)

// defaultSnapshotEvery is the snapshot coalescing interval in steps. A
// journal record costs O(domain) per step; a coalesced snapshot costs
// O(domain·N) for the N steps since the previous one plus the
// idempotency keys added since, with the O(users + domain·T) base
// rewrite amortised over the deltas that outgrow it. Recovery replays
// at most N journal steps behind the last snapshot.
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
// eviction order survives the restart). BaseID is a random nonzero tag
// naming this base to the delta records layered on it; a migration
// body, which has none, and every snapshot written before delta logs
// existed decode it as zero (an additive field, added in schema v2).
//
//tplvet:wire v3 schema=8e65de803f9a
type sessionState struct {
	ConfigJSON []byte
	Created    time.Time
	Server     *stream.ServerState
	Idem       []idemRecord
	BaseID     uint64
}

// sessionDelta is the body of a delta-log record: the base it extends,
// what changed in the server since the previous snapshot, and the
// idempotency records added since the previous snapshot, oldest-first
// (at most idemCacheSize). Restore puts them, in order, on the memory
// the base and the earlier records left, which rebuilds the FIFO
// exactly; so a record costs O(steps + new keys), not a copy of the
// whole memory. In a v1 record (deltaSchemaWholeIdem) Idem is the whole
// memory instead.
//
//tplvet:wire v3 schema=3d2ef11ebb0c
type sessionDelta struct {
	BaseID uint64
	Server *stream.ServerDelta
	Idem   []idemRecord
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

// noCursor is Session.cursor when no base + delta log on disk is known
// to hold exactly the session's state up to a step: the next snapshot
// compacts.
const noCursor = -1

// initPersistenceLocked opens the session's journal (and its delta log,
// when restore left a cursor to extend) and writes its first snapshot,
// which also truncates whatever the journal held. Behind a clean delta
// log a restored session's snapshot is one more delta record; otherwise
// it is a compaction that empties the delta log of whatever a crash left
// (a torn final record). Without it, the logs would reopen in append
// mode behind that debris — and since replay stops at the first
// unverifiable record, everything appended after it would be lost to
// the next crash. For a recovered session a failed snapshot is latched,
// not returned: its files already hold its state, and persistBatch
// retries the snapshot instead of appending. Caller holds s.stepMu.
func (s *Session) initPersistenceLocked(recovered bool) error {
	j, err := s.store.OpenJournal(s.name)
	if err != nil {
		return err
	}
	s.journal = j
	if s.cursor != noCursor {
		if s.deltaLog, err = s.store.OpenDeltaLog(s.name); err != nil {
			s.cursor = noCursor // the snapshot compacts, which reopens the log
		}
	}
	if err := s.snapshotLocked(); err != nil {
		if !recovered {
			return err
		}
		s.journalBad = true
		s.latchPersistErr(err)
	}
	return nil
}

// snapshotLocked makes the session's current state durable — as a delta
// record when the delta log can take one, otherwise as a compaction —
// then resets the journal (state first, reset second: a crash between
// the two leaves journal records the snapshot already covers, which
// replay skips by step index). A successful snapshot also heals a
// poisoned journal — the reset truncates whatever partial record a
// failed append left behind. Caller holds s.stepMu.
func (s *Session) snapshotLocked() error {
	if err := s.writeStateLocked(); err != nil {
		return err
	}
	if s.journal != nil {
		if err := s.journal.Reset(); err != nil {
			return err
		}
	}
	s.journalBad = false
	s.persistMu.Lock()
	s.lastSnapT = s.cursor
	s.lastSnapAt = s.now()
	s.journalRecords = 0
	s.persistErr = nil
	s.persistMu.Unlock()
	return nil
}

// writeStateLocked appends what changed since the last snapshot to the
// delta log (append, then fsync): the server's new steps and the
// idempotency keys added since. It compacts instead when there is no
// cursor (first snapshot, after restore, or after a failed write) or
// when the delta log would outgrow the base, counted by deltaCost. A
// failed append drops the cursor and the log's handle, so the next
// snapshot compacts past whatever partial record it left, through a
// freshly opened file (a retried write or fsync on a handle that
// already failed can claim success for data the kernel dropped); the
// compaction writes the whole idempotency memory, so no addition the
// failed record held is lost. Caller holds s.stepMu.
func (s *Session) writeStateLocked() error {
	if s.cursor == noCursor {
		return s.compactLocked()
	}
	d := s.srv.SnapshotDelta(s.cursor)
	adds := s.idem.additions()
	body, err := gobEncode(sessionDelta{BaseID: s.baseID, Server: d, Idem: adds})
	if err != nil {
		return fmt.Errorf("service: encoding snapshot delta: %w", err)
	}
	cost := deltaCost(body, adds)
	if s.deltaBytes+cost > s.baseBytes {
		return s.compactLocked()
	}
	err = s.deltaLog.Append(deltaSchemaVersion, body)
	if err == nil {
		err = s.deltaLog.Sync()
	}
	if err != nil {
		s.dropDeltaLogLocked()
		return fmt.Errorf("service: appending snapshot delta at step %d: %w", d.ToT, err)
	}
	s.cursor = d.ToT
	s.deltaBytes += cost
	s.idem.markLogged()
	return nil
}

// deltaCost is what a delta record counts toward compaction: its bytes
// less those of its idempotency additions. Compaction bounds the bytes
// written and the bytes a restore reads to amortised O(1) per step;
// the additions are at most one per batch, so they are within that
// bound already, and counting them would only make a session that keys
// its batches compact sooner than one that does not.
func deltaCost(body []byte, adds []idemRecord) int {
	if len(adds) == 0 {
		return len(body)
	}
	enc, err := gobEncode(adds)
	if err != nil {
		return len(body)
	}
	return max(len(body)-len(enc), 0)
}

// compactLocked writes a fresh base under a new BaseID and empties the
// delta log (base first, truncate second: a crash between the two
// leaves delta records the base already covers, which restore skips
// because they name an earlier base). The cursor is set only once both
// landed, so any failure leaves the next snapshot to compact again.
// Caller holds s.stepMu.
func (s *Session) compactLocked() error {
	s.cursor = noCursor
	id, err := newBaseID()
	if err != nil {
		return err
	}
	st := s.srv.Snapshot()
	body, err := s.encodeStateLocked(st, id)
	if err != nil {
		return err
	}
	if err := s.store.SaveSnapshot(s.name, sessionSchemaVersion, body); err != nil {
		return err
	}
	if s.deltaLog == nil {
		if s.deltaLog, err = s.store.OpenDeltaLog(s.name); err != nil {
			return err
		}
	}
	if err := s.deltaLog.Reset(); err != nil {
		s.dropDeltaLogLocked()
		return err
	}
	s.cursor, s.baseID, s.baseBytes, s.deltaBytes = st.T(), id, len(body), 0
	s.idem.markLogged() // the base holds the whole memory
	return nil
}

// newBaseID draws a random nonzero base tag. Random rather than counted,
// so a delta log left behind by an earlier session of the same name can
// never match a new session's base.
func newBaseID() (uint64, error) {
	for {
		seed, err := randomSeed()
		if err != nil {
			return 0, err
		}
		if seed != 0 {
			return uint64(seed), nil
		}
	}
}

// dropDeltaLogLocked closes the delta log after a failed write and
// drops the cursor, so the next snapshot compacts and reopens the log.
// Caller holds s.stepMu.
func (s *Session) dropDeltaLogLocked() {
	s.deltaLog.Close()
	s.deltaLog, s.cursor = nil, noCursor
}

// encodeStateLocked gob-encodes the session's full portable state (the
// same body snapshots persist, tagged baseID; migration ships it over
// the wire untagged). Caller holds s.stepMu; st is a fresh
// s.srv.Snapshot().
func (s *Session) encodeStateLocked(st *stream.ServerState, baseID uint64) ([]byte, error) {
	body, err := gobEncode(sessionState{ConfigJSON: s.cfgJSON, Created: s.created, Server: st, Idem: s.idem.entries(), BaseID: baseID})
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

// closeLogsLocked closes the journal and the delta log. Caller holds
// s.stepMu.
func (s *Session) closeLogsLocked() error {
	var err error
	if s.journal != nil {
		err = s.journal.Close()
		s.journal = nil
	}
	if s.deltaLog != nil {
		if cerr := s.deltaLog.Close(); err == nil {
			err = cerr
		}
		s.deltaLog = nil
	}
	s.cursor = noCursor
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
// each, the last good snapshot is loaded and verified, the delta log
// layered on it, the plan and noise mode are rebuilt from the stored
// config, the compiled leakage engines are re-attached by content
// through the registry's shared model cache, the accountants are
// recharged with the stored budgets, and the journal tail is replayed
// on top. A session that cannot be restored is skipped with
// its error reported — its files stay on disk for inspection — so one
// corrupt tenant cannot keep the rest of the fleet down.
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
	// Decoding every snapshot at once peaks the heap far above what the
	// restored sessions keep; hand that back now rather than carrying it
	// into serving, as Delete does.
	if len(restored) > 0 {
		debug.FreeOSMemory()
	}
	return restored, failed
}

// decodeSessionState verifies a snapshot envelope body and decodes the
// portable session value it carries. A v2 body decodes the same way:
// gob skips the leakage series it also stores.
func decodeSessionState(version uint32, body []byte) (st sessionState, err error) {
	if version != sessionSchemaVersion && version != schemaWithSeries {
		return st, fmt.Errorf("service: snapshot schema version %d not supported (want %d or %d)", version, sessionSchemaVersion, schemaWithSeries)
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

// applyDeltaLog layers the session's delta log onto a decoded base.
// Records naming an earlier base are already covered by this one (a
// crash between a compaction's rename and its truncate leaves them) and
// are skipped — by BaseID, since a record that added no step has the
// same FromT/ToT whichever side of the compaction wrote it. Every other
// record must continue the state exactly (FromT at the state's step),
// or the restore fails; its idempotency records are put on the memory
// in order (a v1 record's replace it). Records of every version decode
// the same way: gob skips the leakage series v1 and v2 records store.
// A torn final record ends the log cleanly — the journal was not reset
// past it, so it still holds those steps — but damage followed by more
// records fails the session loudly rather than silently restoring a
// shorter history.
//
// It reports what the log's records count toward compaction (deltaCost;
// a v1 record counts whole) and whether it ended on a record boundary:
// only then can new records be appended behind it.
func applyDeltaLog(store *persist.Store, name string, st *sessionState) (logBytes int, clean bool, err error) {
	var mem idemCache
	for _, rec := range st.Idem {
		mem.put(rec)
	}
	res, err := store.ReplayDeltaLog(name, func(version uint32, body []byte) error {
		if version != deltaSchemaVersion && version != schemaWithSeries && version != deltaSchemaWholeIdem {
			return fmt.Errorf("service: delta schema version %d not supported (want %d, %d or %d)", version, deltaSchemaVersion, schemaWithSeries, deltaSchemaWholeIdem)
		}
		var rec sessionDelta
		if err := gobDecode(body, &rec); err != nil {
			return fmt.Errorf("service: decoding snapshot delta: %w", err)
		}
		if rec.Server == nil {
			return fmt.Errorf("service: snapshot delta has no server state")
		}
		if version == deltaSchemaWholeIdem {
			logBytes += len(body)
		} else {
			logBytes += deltaCost(body, rec.Idem)
		}
		if rec.BaseID != st.BaseID {
			return nil
		}
		if err := st.Server.Extend(rec.Server); err != nil {
			return fmt.Errorf("service: applying snapshot delta: %w", err)
		}
		if version == deltaSchemaWholeIdem {
			mem = idemCache{}
		}
		for _, e := range rec.Idem {
			mem.put(e)
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	if res.Corrupt {
		return 0, false, fmt.Errorf("service: delta log is damaged after %d intact records", res.Records)
	}
	st.Idem = mem.entries()
	return logBytes, !res.Torn, nil
}

// loadSession loads, verifies and replays one session from the store,
// ready for admit. It changes no registry state (the shared model cache
// aside, which is safe for concurrent use), so RestoreAll runs it for
// several sessions at once.
func (r *Registry) loadSession(store *persist.Store, name string) (*Session, error) {
	version, body, err := store.LoadSnapshot(name)
	if err != nil {
		return nil, err
	}
	st, err := decodeSessionState(version, body)
	if err != nil {
		return nil, err
	}
	logBytes, clean, err := applyDeltaLog(store, name, &st)
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
	snapT := s.srv.T()
	// When the delta log ended cleanly, what is on disk is exactly the
	// state restored so far, and new deltas can extend it; otherwise (a
	// torn tail, or a base from before delta logs) the first snapshot
	// compacts.
	if clean && st.BaseID != 0 {
		s.cursor = snapT
	}
	// Replay the journal tail, one batch record (steps + idempotency
	// record) at a time. Records at or before the snapshot are expected
	// (crash between snapshot and journal reset) and skipped, their key
	// with them: the snapshot's memory already accounts for it, evicted
	// or not. Gaps or schema mismatches beyond it fail the session.
	// Idempotency records are collected in journal order and layered
	// over the snapshot's entries below.
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
			if err := s.srv.ApplyStep(step); err != nil {
				return err
			}
		}
		if rec.Idem != nil && rec.Idem.FirstT > snapT {
			idemTail = append(idemTail, *rec.Idem)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// What the files hold is logged; the journal's keys are additions
	// the next delta record must carry.
	s.adoptIdem(st.Idem)
	s.idem.markLogged()
	s.adoptIdem(idemTail)
	// The health bookkeeping describes the files as found, until the
	// post-recovery snapshot admit writes replaces them.
	s.lastSnapT, s.lastSnapAt, s.journalRecords = snapT, r.now(), replayedSteps
	if mod, _, err := store.SnapshotStat(name); err == nil {
		s.lastSnapAt = mod
	}
	s.baseID, s.baseBytes, s.deltaBytes = st.BaseID, len(body), logBytes
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
