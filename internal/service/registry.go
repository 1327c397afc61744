package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/enginecache"
	"repro/internal/persist"
	"repro/internal/stream"
)

// ErrNotFound is returned when a named session does not exist.
var ErrNotFound = errors.New("service: session not found")

// ErrExists is returned when creating a session whose name is taken.
var ErrExists = errors.New("service: session already exists")

// ErrCapacity is returned when creating a session would push the
// aggregate declared population across all sessions past the process
// ceiling — the per-session limits bound one request's allocation,
// this bounds their sum.
var ErrCapacity = errors.New("service: aggregate population capacity exhausted")

// ErrNoStore is returned by snapshot operations when the registry runs
// in ephemeral mode (no state directory attached).
var ErrNoStore = errors.New("service: no snapshot store attached (ephemeral mode)")

// maxTotalUsers caps the total declared population across sessions
// (~40 B of per-user bookkeeping, so ~2 GB at the cap).
const maxTotalUsers = 50_000_000

// Session is one tenant: a named, configured stream.Server plus the
// bookkeeping the API reports. The embedded server carries its own
// concurrency guarantees; the session's mutex only serializes the
// collect-then-read-budget sequence of the steps endpoint so each
// response reports its own step's budget.
type Session struct {
	name    string
	created time.Time
	srv     *stream.Server
	now     func() time.Time

	// stepMu serializes the collect-then-read-budget sequence of the
	// steps endpoint and, in durable mode, the persist pipeline behind
	// it (journal append order must match step order). Holding it
	// across journal fsyncs is the ack-after-durable contract itself —
	// a step is not acknowledged until its record is on disk — so the
	// I/O lives under this lock by design. Liveness reads (healthz,
	// status) must use pmu instead and must never touch stepMu.
	//tplvet:allow locksafe stepMu orders the durability pipeline; ack-after-fsync requires I/O under it, and liveness paths use pmu instead
	stepMu        sync.Mutex
	store         *persist.Store
	journal       *persist.Journal
	journalBad    bool   // a failed append poisoned the tail; stop appending until a compaction resets it
	cfgJSON       []byte // the creating config, for restore-time rebuilds
	snapshotEvery int
	syncMode      JournalSyncMode         // how appends reach stable storage
	committer     *persist.GroupCommitter // shared group-commit leader (JournalSyncGroup)

	// What the files hold (guarded by stepMu; see snapshotLocked):
	// baseBytes is the base's size and logBytes the journal records
	// behind it, which compaction weighs against it. A restored session
	// carries what its journal replay found (replayed), for admit to cut
	// off a torn tail.
	baseBytes int
	logBytes  int
	replayed  persist.ReplayResult

	// persistMu guards only the bookkeeping below, so health and
	// summary reads never block behind an in-flight collect or an
	// fsync'ing snapshot held under stepMu.
	persistMu      sync.Mutex
	lastSnapT      int
	lastSnapAt     time.Time
	journalRecords int
	persistErr     error

	// retired marks a session that left the registry, deleted or
	// migrated to the shard at retiredTo (guarded by stepMu): any write
	// that raced the retirement and still holds this pointer is refused
	// (retiredErr), so no step can be acknowledged on a server whose
	// files are gone. See retireLocked and migrate.go.
	retired   bool
	retiredTo string

	// idem remembers recent idempotency-keyed batches (guarded by
	// stepMu; persisted — see idempotency.go and persistence.go).
	idem idemCache
	// watch fans live step frames out to SSE subscribers (watch.go).
	watch watchHub

	// sink points at the registry's decision-sink slot (decision.go);
	// nil for sessions built without a registry. modelRevision is the
	// bundle revision the session's model refs resolved from, pinned at
	// creation and persisted with the config.
	sink          *atomic.Pointer[sinkBox]
	modelRevision string
}

// Name returns the session's registry key.
func (s *Session) Name() string { return s.name }

// Created returns the creation timestamp.
func (s *Session) Created() time.Time { return s.created }

// Server returns the underlying release server (safe for concurrent
// use; see the stream package's concurrency contract).
func (s *Session) Server() *stream.Server { return s.srv }

// Summary is the API's session digest.
type Summary struct {
	Name        string  `json:"name"`
	Domain      int     `json:"domain"`
	Users       int     `json:"users"`
	Cohorts     int     `json:"cohorts"`
	T           int     `json:"t"`
	Noise       string  `json:"noise"`
	Sensitivity float64 `json:"sensitivity"`
	HasPlan     bool    `json:"has_plan"`
	PlanStep    int     `json:"plan_step,omitempty"`
	// PlanHorizon is the attached plan's finite horizon (0 when
	// horizonless or no plan): PlanStep/PlanHorizon is the budget
	// pressure the status plugin reports.
	PlanHorizon int `json:"plan_horizon,omitempty"`
	// ModelRevision is the bundle revision the session's models were
	// resolved from (empty for inline-configured sessions).
	ModelRevision string    `json:"model_revision,omitempty"`
	Created       time.Time `json:"created"`
	// Persistence reports snapshot/journal health; absent in ephemeral
	// mode.
	Persistence *PersistInfo `json:"persistence,omitempty"`
}

// Summary captures the session's current state.
func (s *Session) Summary() Summary {
	return Summary{
		Name:          s.name,
		Domain:        s.srv.Domain(),
		Users:         s.srv.Users(),
		Cohorts:       s.srv.Cohorts(),
		T:             s.srv.T(),
		Noise:         noiseName(s.srv.Noise()),
		Sensitivity:   s.srv.Sensitivity(),
		HasPlan:       s.srv.HasPlan(),
		PlanStep:      s.srv.PlanStep(),
		PlanHorizon:   s.srv.PlanHorizon(),
		ModelRevision: s.modelRevision,
		Created:       s.created,
		Persistence:   s.persistInfo(),
	}
}

// sessionStripes shards the session table across independent locks
// (power of two; the stripe is picked by name hash). A single shared
// RWMutex made every session lookup — one per ingest request —
// rendezvous on one cache line; with striping, concurrent ingestion
// into different sessions contends only when names collide in a
// stripe, and create/delete churn never stalls unrelated traffic.
const sessionStripes = 64

// sessionStripe is one shard of the session table.
type sessionStripe struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	// tombstones maps migrated-away session names to their new owner's
	// base URL. Checked only on a Get miss, so the tombstone table costs
	// the hot path nothing. Persisted as .tomb files (migrate.go).
	tombstones map[string]string
}

// Registry is the concurrency-safe session store. The zero value is not
// usable; construct with NewRegistry.
//
// The registry owns a compiled-model cache shared by every session it
// creates: tenants declaring content-identical correlation chains reuse
// one compiled leakage engine per distinct transition matrix instead of
// re-quantifying it per session.
type Registry struct {
	stripes [sessionStripes]sessionStripe
	// totalUsers is the declared population across all sessions.
	// Creations reserve capacity with a CAS loop before inserting, so
	// the ceiling holds without any lock shared across stripes.
	totalUsers atomic.Int64
	capacity   int              // aggregate population ceiling; lowered in tests
	now        func() time.Time // injectable for tests
	models     *stream.ModelCache
	// engineCache is the optional on-disk tier behind models: compiled
	// engines persist across process restarts, keyed by chain content.
	// Attached at boot (SetEngineCache), before any session exists.
	engineCache *enginecache.Cache
	// decisions is the attached decision sink (decision.go); sessions
	// load through a pointer to this slot, so SetDecisionSink reaches
	// every live session without touching any per-session lock.
	decisions atomic.Pointer[sinkBox]

	// Durability wiring (persistence.go); boot-time configuration
	// guarded by pmu, nil store means ephemeral mode.
	pmu           sync.Mutex
	store         *persist.Store
	snapshotEvery int
	syncMode      JournalSyncMode
	committer     *persist.GroupCommitter
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		capacity: maxTotalUsers,
		now:      time.Now,
		models:   stream.NewModelCache(),
	}
	for i := range r.stripes {
		r.stripes[i].sessions = make(map[string]*Session)
		r.stripes[i].tombstones = make(map[string]string)
	}
	return r
}

// stripe returns the shard owning the given session name (FNV-1a).
func (r *Registry) stripe(name string) *sessionStripe {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &r.stripes[h&(sessionStripes-1)]
}

// reserveUsers claims n users of aggregate capacity, or reports
// ErrCapacity without claiming anything. Release by adding -n back.
func (r *Registry) reserveUsers(n int) error {
	for {
		cur := r.totalUsers.Load()
		if cur+int64(n) > int64(r.capacity) {
			return fmt.Errorf("%w: %d users in use, %d requested, limit %d", ErrCapacity, cur, n, r.capacity)
		}
		if r.totalUsers.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// ModelCache exposes the registry's shared compiled-model cache (for
// stats reporting and tests).
func (r *Registry) ModelCache() *stream.ModelCache { return r.models }

// SetEngineCache attaches an on-disk compiled-engine cache behind the
// model cache: chains seen in any previous process load their compiled
// engine from disk instead of recompiling, and fresh compilations are
// persisted for the next process. Attach before restoring or creating
// sessions — quantifiers built earlier keep in-memory-only behavior.
func (r *Registry) SetEngineCache(c *enginecache.Cache) {
	r.engineCache = c
	if c != nil {
		r.models.SetEngineStore(c)
	} else {
		r.models.SetEngineStore(nil)
	}
}

// EngineCache returns the attached on-disk engine cache, or nil in
// memory-only mode.
func (r *Registry) EngineCache() *enginecache.Cache { return r.engineCache }

// checkName validates a session name: non-empty, at most 128 bytes, no
// path or whitespace characters (names appear in URL paths).
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("service: session name must not be empty")
	}
	if len(name) > 128 {
		return fmt.Errorf("service: session name longer than 128 bytes")
	}
	if strings.ContainsAny(name, "/ \t\r\n") {
		return fmt.Errorf("service: session name %q contains a slash or whitespace", name)
	}
	return nil
}

// Create builds the configured server and registers it under the
// config's name. The build happens outside the registry lock, so a
// slow plan construction does not block the store; a name collision
// discovered at the insert returns ErrExists with the freshly built
// session discarded.
func (r *Registry) Create(cfg *SessionConfig) (*Session, error) {
	if err := checkName(cfg.Name); err != nil {
		return nil, err
	}
	// Advisory checks before the expensive build; the binding ones are
	// admit's.
	stripe := r.stripe(cfg.Name)
	stripe.mu.RLock()
	_, taken := stripe.sessions[cfg.Name]
	stripe.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrExists, cfg.Name)
	}
	if pop := cfg.population(); r.totalUsers.Load()+int64(pop) > int64(r.capacity) {
		return nil, fmt.Errorf("%w: %d users in use, %d requested, limit %d", ErrCapacity, r.Users(), pop, r.capacity)
	}
	// Bundle refs resolve here, against the active named revision, and
	// the config is rewritten in place to the resolved inline chains.
	// Everything downstream — the build, and crucially the persisted
	// cfgJSON — sees only resolved models, so a crash recovery rebuilds
	// exactly what was created even if a different bundle is active by
	// then.
	if err := cfg.resolveRefs(r.models); err != nil {
		return nil, err
	}
	srv, err := cfg.BuildCached(r.models)
	if err != nil {
		return nil, err
	}
	// The resolved config is serialized for every session, durable or
	// not: restores rebuild from it, and migration ships it with the
	// exported state, so even an ephemeral shard can hand a session off.
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("service: serializing session config: %w", err)
	}
	s := r.newSession(cfg, cfgJSON, r.now(), srv)
	if err := r.admit(s, false); err != nil {
		return nil, err
	}
	return s, nil
}

// newSession wires a built server into a session: the registry's clock
// and decision sink, and its durability settings, read once.
func (r *Registry) newSession(cfg *SessionConfig, cfgJSON []byte, created time.Time, srv *stream.Server) *Session {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return &Session{
		name:          cfg.Name,
		created:       created,
		srv:           srv,
		now:           r.now,
		sink:          &r.decisions,
		modelRevision: cfg.ModelRevision,
		cfgJSON:       cfgJSON,
		store:         r.store,
		snapshotEvery: r.snapshotEvery,
		syncMode:      r.syncMode,
		committer:     r.committer,
	}
}

// admit is the one way a session enters the registry (Create,
// ImportSession and RestoreAll): it reserves the session's users, inserts
// it under its name, supersedes a migration tombstone of that name, and
// initialises its persistence, undoing all of it if that fails.
//
// The insert comes before the persistence, so a concurrent admit of the
// same name loses cleanly at the map — never by overwriting the winner's
// files. stepMu is held throughout (lock order stepMu → stripe.mu), so
// no early step slips past the journal, and no retire can take the
// session out from under the rollback: only admit and retire change the
// map, both under the session's stepMu. The tombstone file goes before
// the first snapshot — a crash between the two must not restart into a
// redirect that deletes the new session — and a rollback puts it back,
// in memory and on disk, before the name is free again.
//
// recovered marks a session rebuilt from its own files: its state is
// already durable, so it writes no first snapshot, a failed cut of a
// torn journal tail is latched into its health (persistBatch compacts
// instead of appending until a compaction succeeds) instead of refusing
// the session, and a rollback keeps its files. Any other session writes
// its first snapshot, which must succeed, and a rollback removes its
// files.
func (r *Registry) admit(s *Session, recovered bool) error {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	users := s.srv.Users()
	if err := r.reserveUsers(users); err != nil {
		return err
	}
	stripe := r.stripe(s.name)
	stripe.mu.Lock()
	if _, taken := stripe.sessions[s.name]; taken {
		stripe.mu.Unlock()
		r.totalUsers.Add(-int64(users))
		return fmt.Errorf("%w: %q", ErrExists, s.name)
	}
	stripe.sessions[s.name] = s
	tomb, hadTomb := stripe.tombstones[s.name]
	delete(stripe.tombstones, s.name)
	stripe.mu.Unlock()
	if s.store == nil {
		return nil
	}
	if hadTomb {
		_ = s.store.RemoveTombstone(s.name)
	}
	err := s.initPersistenceLocked(recovered)
	if err == nil {
		return nil
	}
	// A writer that looked s up meanwhile must not step it.
	s.retired, s.retiredTo = true, tomb
	store := s.detachPersistenceLocked()
	if hadTomb {
		_ = store.SaveTombstone(s.name, tomb) // first: a tombstone wins on restore
	}
	if !recovered {
		_ = store.Remove(s.name)
	}
	stripe.mu.Lock()
	delete(stripe.sessions, s.name)
	if hadTomb {
		stripe.tombstones[s.name] = tomb
	}
	stripe.mu.Unlock()
	r.totalUsers.Add(-int64(users))
	return err
}

// owns reports whether s is the session registered under its name. Only
// admit and retireLocked change that, both under s.stepMu, so the answer
// holds for as long as the caller holds s.stepMu.
func (r *Registry) owns(s *Session) bool {
	stripe := r.stripe(s.name)
	stripe.mu.RLock()
	defer stripe.mu.RUnlock()
	return stripe.sessions[s.name] == s
}

// retireLocked is the one way a session leaves the registry (Delete and
// Migrate): if s is still the session registered under its name, it
// fences s against writers that still hold the pointer, drops s's
// files, replaces it in the map with a tombstone to location (none when
// location is empty), releases its users and disconnects its watchers.
// The files go first, while the name is still taken, so they can never
// be a re-created session's; a tombstone is fsynced before them, so a
// crash in between restarts into the redirect. A session already
// retired reports ErrNotFound. Caller holds s.stepMu.
func (r *Registry) retireLocked(s *Session, location string) error {
	if !r.owns(s) {
		return fmt.Errorf("%w: %q", ErrNotFound, s.name)
	}
	s.retired, s.retiredTo = true, location
	var err error
	if store := s.detachPersistenceLocked(); store != nil {
		if location != "" {
			if err = store.SaveTombstone(s.name, location); err != nil {
				err = fmt.Errorf("recording its tombstone: %w", err)
			}
		}
		if rerr := store.Remove(s.name); rerr != nil && err == nil {
			err = fmt.Errorf("dropping its files: %w", rerr)
		}
	}
	stripe := r.stripe(s.name)
	stripe.mu.Lock()
	delete(stripe.sessions, s.name)
	if location != "" {
		stripe.tombstones[s.name] = location
	}
	stripe.mu.Unlock()
	r.totalUsers.Add(-int64(s.srv.Users()))
	// Live watchers are disconnected: their session no longer exists
	// here, and a silently idle stream would hide that until a write
	// timeout.
	s.watch.closeAll()
	return err
}

// retiredErr refuses a retired session: ErrNotFound when it was
// deleted, a WrongShardError redirect when it migrated. Caller holds
// s.stepMu.
func (s *Session) retiredErr() error {
	switch {
	case !s.retired:
		return nil
	case s.retiredTo == "":
		return fmt.Errorf("%w: %q", ErrNotFound, s.name)
	default:
		return &WrongShardError{Name: s.name, Location: s.retiredTo}
	}
}

// Users returns the aggregate declared population across all sessions.
func (r *Registry) Users() int {
	return int(r.totalUsers.Load())
}

// Get returns the named session. A name that was migrated away resolves
// to WrongShardError carrying the new owner's base URL; the tombstone is
// consulted only after the live-session miss, so clustered redirects add
// zero cost to the resident hot path.
func (r *Registry) Get(name string) (*Session, error) {
	stripe := r.stripe(name)
	stripe.mu.RLock()
	s, ok := stripe.sessions[name]
	loc, gone := "", false
	if !ok {
		loc, gone = stripe.tombstones[name]
	}
	stripe.mu.RUnlock()
	if !ok {
		if gone {
			return nil, &WrongShardError{Name: name, Location: loc}
		}
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return s, nil
}

// Delete removes the named session, releasing its population from the
// aggregate capacity and deleting its persisted state. It waits for a
// step or migration in flight on the session; if a migration retired
// the session first, Delete reports ErrNotFound.
//
// A session's history (published rows, leakage series) can run to
// hundreds of megabytes, all of it garbage once the session is gone.
// Delete returns it to the operating system right away: left to the
// collector's pacing, the heap would keep the size it reached while the
// session lived until allocation caught up with it.
func (r *Registry) Delete(name string) error {
	stripe := r.stripe(name)
	stripe.mu.RLock()
	s, ok := stripe.sessions[name]
	stripe.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	s.stepMu.Lock()
	err := r.retireLocked(s, "")
	s.stepMu.Unlock()
	if errors.Is(err, ErrNotFound) {
		return err
	}
	debug.FreeOSMemory()
	if err != nil {
		return fmt.Errorf("service: deleted %q but %w", name, err)
	}
	return nil
}

// List returns all sessions sorted by name.
func (r *Registry) List() []*Session {
	var out []*Session
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.RLock()
		for _, s := range st.sessions {
			out = append(out, s)
		}
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of registered sessions.
func (r *Registry) Len() int {
	n := 0
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.RLock()
		n += len(st.sessions)
		st.mu.RUnlock()
	}
	return n
}
