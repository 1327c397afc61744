package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
)

// deltaTestConfig is a planned session with forward correlation, so
// reads between snapshots refresh a suffix of every correlated cohort's
// FPL series.
func deltaTestConfig(name string) *SessionConfig {
	var chain ModelConfig
	if err := json.Unmarshal([]byte(`{"backward": {"rows": [[0.8,0.2],[0.3,0.7]]}, "forward": {"rows": [[0.7,0.3],[0.2,0.8]]}}`), &chain); err != nil {
		panic(err)
	}
	return &SessionConfig{
		Name:    name,
		Domain:  2,
		Cohorts: []CohortConfig{{Users: 3, Model: chain}, {Users: 2, Model: ModelConfig{}}},
		Seed:    11,
		Plan:    &PlanConfig{Kind: "upper-bound", Alpha: 2.0},
	}
}

// randomBatch draws 1..maxSteps count steps, mixing explicit budgets
// with plan-drawn ones.
func randomBatch(rng *rand.Rand, users, maxSteps int) []stream.BatchStep {
	steps := make([]stream.BatchStep, 1+rng.Intn(maxSteps))
	for i := range steps {
		a := rng.Intn(users + 1)
		steps[i].Counts = []int{a, users - a}
		if rng.Intn(2) == 0 {
			eps := 0.05 + 0.1*rng.Float64()
			steps[i].Eps = &eps
		}
	}
	return steps
}

// persistedState decodes what the state dir holds for a session: the
// base with any delta log and the journal folded on, and the
// idempotency memory those leave — exactly the state a restore charges.
func persistedState(t *testing.T, store *persist.Store, name string) sessionState {
	t.Helper()
	version, body, err := store.LoadSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeSessionState(version, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyDeltaLog(store, name, &st); err != nil {
		t.Fatal(err)
	}
	tail, _, _, err := foldJournal(store, name, &st)
	if err != nil {
		t.Fatal(err)
	}
	var mem idemCache
	for _, rec := range append(st.Idem, tail...) {
		mem.put(rec)
	}
	st.Idem = mem.entries()
	return st
}

// legacyDelta encodes the delta-log record a snapshot appended before
// the journal became the incremental snapshot: the steps of s after
// fromT, the keys adds, on the base tagged baseID.
func legacyDelta(t testing.TB, s *Session, baseID uint64, fromT int, adds []idemRecord) []byte {
	t.Helper()
	st := s.Server().Snapshot()
	body, err := gobEncode(sessionDelta{BaseID: baseID, Idem: adds, Server: &stream.ServerDelta{
		FromT:       fromT,
		ToT:         st.T(),
		Budgets:     st.Budgets[fromT:],
		Published:   st.Published[fromT:],
		Sensitivity: st.Sensitivity,
		Noise:       st.Noise,
		HasPlan:     st.HasPlan,
		PlanBase:    st.PlanBase,
		RNG:         st.RNG,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// appendLegacyDelta does in dir what such a snapshot did: it appends a
// legacyDelta record on the base on disk, covering the steps after
// fromT and the last adds keys, and (when resetJournal) empties the
// journal. It returns the record's last step.
func appendLegacyDelta(t testing.TB, dir string, s *Session, fromT, adds int, resetJournal bool) int {
	t.Helper()
	base := readStateFile(t, dir, s.name+".snap")
	_, body, err := persist.DecodeEnvelope(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	var st sessionState
	if err := gobDecode(body, &st); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, s.name+".delta"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := persist.EncodeEnvelope(f, deltaSchemaVersion, legacyDelta(t, s, st.BaseID, fromT, s.idem.newest(adds))); err != nil {
		t.Fatal(err)
	}
	if resetJournal {
		if err := os.Truncate(filepath.Join(dir, s.name+".journal"), 0); err != nil {
			t.Fatal(err)
		}
	}
	return s.Server().T()
}

// mustMatchWEvent compares every user's and the population's w-event
// leakage exactly.
func mustMatchWEvent(t *testing.T, a, b *Session) {
	t.Helper()
	sa, sb := a.Server(), b.Server()
	for _, w := range []int{1, 3, 8} {
		if w > sa.T() {
			continue
		}
		for u := 0; u < sa.Users(); u++ {
			va, err := sa.WEvent(u, w)
			if err != nil {
				t.Fatal(err)
			}
			vb, err := sb.WEvent(u, w)
			if err != nil {
				t.Fatal(err)
			}
			if va != vb {
				t.Fatalf("WEvent(%d,%d): %v != %v", u, w, va, vb)
			}
		}
		ma, ua, err := sa.MaxWEvent(w)
		if err != nil {
			t.Fatal(err)
		}
		mb, ub, err := sb.MaxWEvent(w)
		if err != nil {
			t.Fatal(err)
		}
		if ma != mb || ua != ub {
			t.Fatalf("MaxWEvent(%d): %v@%d != %v@%d", w, ma, ua, mb, ub)
		}
	}
}

// TestSnapshotDeltaDifferential drives a durable session through
// ingest with interleaved reads, idempotent retries, forced and due
// compactions and a plan. The journal is the snapshot's delta: after
// every batch, the base with the journal folded on must decode to
// exactly the live Snapshot() and idempotency memory; after a restart,
// the session must answer every read like an uninterrupted in-memory
// run fed the same batches, and keep doing so.
func TestSnapshotDeltaDifferential(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir, 8)
	s, err := r.Create(deltaTestConfig("sess"))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewRegistry().Create(deltaTestConfig("sess"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var keys []string
	var batches [][]stream.BatchStep
	appended, compactions := 0, 0
	for i := 0; i < 150; i++ {
		if i%3 == 0 {
			if _, err := s.Server().Report(); err != nil {
				t.Fatal(err)
			}
		}
		switch {
		case i%5 == 4:
			// Retry an earlier batch: it must replay, not re-apply.
			k := rng.Intn(len(keys))
			if _, replayed, err := s.CollectBatch(keys[k], batches[k]); err != nil || !replayed {
				t.Fatalf("retry of %s: replayed=%v err=%v", keys[k], replayed, err)
			}
			continue // a replay writes nothing
		case i%23 == 22:
			if _, err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		default:
			key, steps := fmt.Sprintf("k%d", i), randomBatch(rng, 5, 4)
			keys, batches = append(keys, key), append(batches, steps)
			if _, _, err := s.CollectBatch(key, steps); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ctl.CollectBatch(key, steps); err != nil {
				t.Fatal(err)
			}
			if s.persistInfo().JournalRecords == 0 {
				compactions++
			} else {
				appended++
			}
		}
		got := persistedState(t, r.Store(), "sess")
		if want := s.Server().Snapshot(); !reflect.DeepEqual(got.Server, want) {
			t.Fatalf("batch %d (T=%d): persisted server state differs from Snapshot()", i, want.T())
		}
		if want := s.idem.entries(); !reflect.DeepEqual(got.Idem, want) {
			t.Fatalf("batch %d: persisted idempotency memory differs", i)
		}
	}
	if appended < 50 || compactions < 3 {
		t.Fatalf("%d journaled batches and %d due compactions: the test does not exercise both", appended, compactions)
	}
	// A journal tail behind the last compaction, then the restart.
	for i := 0; i < 3; i++ {
		steps := randomBatch(rng, 5, 2)
		for _, sess := range []*Session{s, ctl} {
			if _, _, err := sess.CollectBatch(fmt.Sprintf("tail%d", i), steps); err != nil {
				t.Fatal(err)
			}
		}
	}
	r2 := durableRegistry(t, dir, 8)
	if _, failed := r2.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restore failures: %v", failed)
	}
	s2, err := r2.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	mustMatchSessions(t, ctl, s2)
	mustMatchWEvent(t, ctl, s2)
	if !reflect.DeepEqual(s2.idem.entries(), s.idem.entries()) {
		t.Fatal("restored idempotency memory differs")
	}
	if _, replayed, err := s2.CollectBatch(keys[len(keys)-1], batches[len(batches)-1]); err != nil || !replayed {
		t.Fatalf("retry after restart: replayed=%v err=%v", replayed, err)
	}
	for i := 0; i < 20; i++ {
		steps := randomBatch(rng, 5, 4)
		for _, sess := range []*Session{s2, ctl} {
			if _, _, err := sess.CollectBatch(fmt.Sprintf("after%d", i), steps); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustMatchSessions(t, ctl, s2)
	mustMatchWEvent(t, ctl, s2)
}

// copyStateDir copies a state dir's files into a fresh directory — the
// on-disk image a crash at that moment would leave.
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// readStateFile returns one of a state dir's files.
func readStateFile(t testing.TB, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeStateFile replaces one of a state dir's files.
func writeStateFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// stateFileExists reports whether a state dir holds the named file.
func stateFileExists(t *testing.T, dir, name string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(dir, name))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

// recordEnds returns the end offset of every record in a journal or a
// delta log.
func recordEnds(t *testing.T, log []byte) []int {
	t.Helper()
	rd := bytes.NewReader(log)
	var ends []int
	for rd.Len() > 0 {
		if _, _, err := persist.DecodeEnvelope(rd); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(log)-rd.Len())
	}
	return ends
}

// restoreCrashImage restores a state-dir image and requires the session
// to match the live one exactly, the restore to have written neither
// the base nor a delta log, and a compaction after it to leave a fresh
// base, an empty journal and no delta log, which restore again to the
// same session.
func restoreCrashImage(t *testing.T, dir string, live *Session) *Session {
	t.Helper()
	base := readStateFile(t, dir, "sess.snap")
	hadDelta := stateFileExists(t, dir, "sess.delta")
	r := durableRegistry(t, dir, 1<<20)
	if _, failed := r.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restore failures: %v", failed)
	}
	s, err := r.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readStateFile(t, dir, "sess.snap"), base) || stateFileExists(t, dir, "sess.delta") != hadDelta {
		t.Fatal("recovery rewrote the base or the delta log")
	}
	mustMatchSessions(t, live, s)
	mustMatchWEvent(t, live, s)
	if !reflect.DeepEqual(s.idem.entries(), live.idem.entries()) {
		t.Fatal("restored idempotency memory differs")
	}
	if _, err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if n := len(readStateFile(t, dir, "sess.journal")); n != 0 || stateFileExists(t, dir, "sess.delta") {
		t.Fatalf("the compaction after recovery left %d journal bytes, delta log %v", n, stateFileExists(t, dir, "sess.delta"))
	}
	got := persistedState(t, r.Store(), "sess")
	if want := s.Server().Snapshot(); !reflect.DeepEqual(got.Server, want) {
		t.Fatal("after the compaction, the base differs from the restored state")
	}
	if want := s.idem.entries(); !reflect.DeepEqual(got.Idem, want) {
		t.Fatal("after the compaction, the persisted idempotency memory differs")
	}
	r2 := durableRegistry(t, copyStateDir(t, dir), 1<<20)
	if _, failed := r2.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restore after the compaction: %v", failed)
	}
	s2, err := r2.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	mustMatchSessions(t, live, s2)
	return s
}

// TestSnapshotDeltaCrashPoints restores the state-dir image each crash
// point of a compaction (base, then delta-log removal, then journal
// truncate) leaves, each image the delta log of an earlier version can
// leave, and each failure restore must survive: every one restores to
// the live session exactly, except a damaged middle delta record, which
// must fail loudly and keep its files.
func TestSnapshotDeltaCrashPoints(t *testing.T) {
	// start returns a session with a base of a few hundred steps and a
	// keyed journal tail (compactions only when forced); with legacy, it
	// also has what an earlier version's snapshots wrote behind the base:
	// four delta records, the journal emptied after each.
	start := func(t *testing.T, legacy bool) (string, *Registry, *Session, func(n int), int) {
		dir := t.TempDir()
		r := durableRegistry(t, dir, 1<<20)
		s, err := r.Create(deltaTestConfig("sess"))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		batch := 0
		ingest := func(n int) {
			for i := 0; i < n; i++ {
				batch++
				if _, _, err := s.CollectBatch(fmt.Sprintf("k%d", batch), randomBatch(rng, 5, 4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 40; i++ {
			if _, _, err := s.CollectBatch("", randomBatch(rng, 5, 16)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		cur := s.Server().T()
		for i := 0; i < 4; i++ {
			ingest(3)
			if legacy {
				cur = appendLegacyDelta(t, dir, s, cur, 3, true)
			}
		}
		if legacy {
			if n := len(recordEnds(t, readStateFile(t, dir, "sess.delta"))); n != 4 {
				t.Fatalf("setup wrote %d deltas, want 4", n)
			}
		}
		ingest(2)
		return dir, r, s, ingest, cur
	}

	t.Run("after-base-save-before-journal-truncate", func(t *testing.T) {
		// The new base beside the journal it covers: every journal
		// record is at or before the base and must be skipped.
		dir, _, s, _, _ := start(t, false)
		pre := copyStateDir(t, dir)
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		if n := len(readStateFile(t, dir, "sess.journal")); n != 0 {
			t.Fatalf("compaction left %d bytes in the journal", n)
		}
		writeStateFile(t, pre, "sess.snap", readStateFile(t, dir, "sess.snap"))
		restoreCrashImage(t, pre, s)
	})

	t.Run("clean-restart-writes-nothing", func(t *testing.T) {
		// Behind a clean journal, recovery writes nothing: the base keeps
		// its bytes and mtime, the journal its records, and the restored
		// session appends behind them.
		dir, _, s, _, _ := start(t, false)
		img := copyStateDir(t, dir)
		old := time.Now().Add(-time.Hour).Truncate(time.Second)
		if err := os.Chtimes(filepath.Join(img, "sess.snap"), old, old); err != nil {
			t.Fatal(err)
		}
		journal := readStateFile(t, img, "sess.journal")
		records := len(recordEnds(t, journal))
		r := durableRegistry(t, img, 1<<20)
		if _, failed := r.RestoreAll(); len(failed) != 0 {
			t.Fatalf("restore failures: %v", failed)
		}
		s2, err := r.Get("sess")
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(img, "sess.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readStateFile(t, img, "sess.snap"), readStateFile(t, dir, "sess.snap")) || !info.ModTime().Equal(old) {
			t.Fatalf("recovery rewrote the base (mtime %v, want %v)", info.ModTime(), old)
		}
		if !bytes.Equal(readStateFile(t, img, "sess.journal"), journal) {
			t.Fatal("recovery rewrote the journal")
		}
		mustMatchSessions(t, s, s2)
		if _, _, err := s2.CollectBatch("again", []stream.BatchStep{{Counts: []int{2, 3}}}); err != nil {
			t.Fatal(err)
		}
		after := readStateFile(t, img, "sess.journal")
		if !bytes.HasPrefix(after, journal) || len(recordEnds(t, after)) != records+1 {
			t.Fatalf("the next batch did not append one record behind the %d found", records)
		}
		restoreCrashImage(t, copyStateDir(t, img), s2)
	})

	t.Run("torn-final-journal-record", func(t *testing.T) {
		// Recovery cuts the torn record off and appends behind the last
		// verified one; the base stays as it was.
		dir, _, _, ingest, _ := start(t, false)
		pre := copyStateDir(t, dir)
		ingest(1)
		journal := readStateFile(t, dir, "sess.journal")
		ends := recordEnds(t, journal)
		last := ends[len(ends)-2]
		for _, cut := range []int{last + 1, last + 60, len(journal) - 1} {
			img := copyStateDir(t, pre)
			writeStateFile(t, img, "sess.journal", journal[:cut])
			r := durableRegistry(t, img, 1<<20)
			if _, failed := r.RestoreAll(); len(failed) != 0 {
				t.Fatalf("cut %d: restore failures: %v", cut, failed)
			}
			s2, err := r.Get("sess")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readStateFile(t, img, "sess.journal"), journal[:last]) {
				t.Fatalf("cut %d: recovery did not truncate the journal to its last verified record", cut)
			}
			if !bytes.Equal(readStateFile(t, img, "sess.snap"), readStateFile(t, pre, "sess.snap")) {
				t.Fatalf("cut %d: recovery rewrote the base", cut)
			}
			if s2.Server().T() != readT(t, pre) {
				t.Fatalf("cut %d: restored T=%d, want %d", cut, s2.Server().T(), readT(t, pre))
			}
			if _, _, err := s2.CollectBatch("again", []stream.BatchStep{{Counts: []int{2, 3}}}); err != nil {
				t.Fatal(err)
			}
			if n := len(recordEnds(t, readStateFile(t, img, "sess.journal"))); n != len(ends) {
				t.Fatalf("cut %d: %d journal records after one more batch, want %d", cut, n, len(ends))
			}
			restoreCrashImage(t, copyStateDir(t, img), s2)
		}
	})

	t.Run("failed-compaction-keeps-the-journal", func(t *testing.T) {
		// A compaction that cannot write its base is latched; batches keep
		// landing in the journal behind the old base, and the next
		// compaction that can write clears the error.
		dir, r, s, ingest, _ := start(t, false)
		blocker := filepath.Join(dir, "sess.snap.tmp")
		if err := os.MkdirAll(filepath.Join(blocker, "pin"), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SnapshotNow(); err == nil {
			t.Fatal("a compaction over a blocked temp file succeeded")
		}
		if h := r.PersistenceHealth(); h.SessionsWithErrors != 1 {
			t.Fatalf("failed compaction not latched: %+v", h)
		}
		ingest(2)
		if err := os.RemoveAll(blocker); err != nil {
			t.Fatal(err)
		}
		restoreCrashImage(t, copyStateDir(t, dir), s)
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatalf("the compaction after a failed one: %v", err)
		}
		if h := r.PersistenceHealth(); h.SessionsWithErrors != 0 {
			t.Fatalf("compaction did not clear the latched error: %+v", h)
		}
		ingest(2)
		restoreCrashImage(t, copyStateDir(t, dir), s)
	})

	t.Run("torn-final-delta", func(t *testing.T) {
		// A crash mid-append of an earlier version's delta record left
		// the journal holding those steps.
		dir, _, s, _, cur := start(t, true)
		log := readStateFile(t, dir, "sess.delta")
		appendLegacyDelta(t, dir, s, cur, 2, false)
		full := readStateFile(t, dir, "sess.delta")
		for _, cut := range []int{len(log) + 1, len(log) + 60, len(full) - 1} {
			img := copyStateDir(t, dir)
			writeStateFile(t, img, "sess.delta", full[:cut])
			restoreCrashImage(t, img, s)
		}
	})

	t.Run("after-delta-fsync-before-journal-reset", func(t *testing.T) {
		dir, _, s, _, cur := start(t, true)
		appendLegacyDelta(t, dir, s, cur, 2, false)
		restoreCrashImage(t, copyStateDir(t, dir), s)
	})

	t.Run("after-base-rename-before-delta-truncate", func(t *testing.T) {
		// A compaction's base beside the delta log it supersedes: every
		// delta names the old base and must be skipped.
		dir, _, s, _, _ := start(t, true)
		pre := copyStateDir(t, dir)
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		writeStateFile(t, pre, "sess.snap", readStateFile(t, dir, "sess.snap"))
		restoreCrashImage(t, pre, s)
	})

	t.Run("idle-delta-beside-stale-deltas", func(t *testing.T) {
		// A compaction, then an idle record naming the new base behind
		// the superseded ones: it has the same FromT/ToT as the last of
		// them, and only it must be applied.
		dir, _, s, _, _ := start(t, true)
		stale := readStateFile(t, dir, "sess.delta")
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		T := s.Server().T()
		appendLegacyDelta(t, dir, s, T, 0, false)
		fresh := readStateFile(t, dir, "sess.delta")
		writeStateFile(t, dir, "sess.delta", append(append([]byte(nil), stale...), fresh...))
		got := persistedState(t, s.store, "sess")
		if want := s.Server().Snapshot(); !reflect.DeepEqual(got.Server, want) {
			t.Fatal("base ⊕ delta log differs from Snapshot() beside superseded deltas")
		}
		restoreCrashImage(t, copyStateDir(t, dir), s)
	})

	t.Run("corrupt-middle-delta", func(t *testing.T) {
		dir, _, _, _, _ := start(t, true)
		img := copyStateDir(t, dir)
		log := readStateFile(t, img, "sess.delta")
		ends := recordEnds(t, log)
		log[ends[0]+60] ^= 0xFF // a body byte of the second record
		writeStateFile(t, img, "sess.delta", log)
		r := durableRegistry(t, img, 1<<20)
		restored, failed := r.RestoreAll()
		if len(restored) != 0 {
			t.Fatalf("restored %v from a damaged delta log", restored)
		}
		if err := failed["sess"]; err == nil || !strings.Contains(err.Error(), "delta log is damaged") {
			t.Fatalf("restore error %v, want the damaged delta log", err)
		}
		if _, err := r.Get("sess"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("damaged session is live: %v", err)
		}
		for f, want := range map[string][]byte{
			"sess.snap":    readStateFile(t, dir, "sess.snap"),
			"sess.journal": readStateFile(t, dir, "sess.journal"),
			"sess.delta":   log,
		} {
			if !bytes.Equal(readStateFile(t, img, f), want) {
				t.Fatalf("failed restore modified %s", f)
			}
		}
	})
}

// readT is the step count the state dir's files restore to.
func readT(t *testing.T, dir string) int {
	t.Helper()
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return persistedState(t, store, "sess").Server.T()
}

// TestSnapshotBytesLinearInT is the byte bound: the bytes a session's
// durable state costs to write — the journal records and every base a
// compaction rewrites — grow linearly in T, where rewriting the whole
// history at every snapshot grows quadratically. It counts file sizes,
// not time, so it is deterministic.
func TestSnapshotBytesLinearInT(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir, 64)
	s, err := r.Create(persistTestConfig("sess", 3, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	size := func(f string) int64 {
		info, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			return 0
		}
		return info.Size()
	}
	var written, prevJournal int64
	writtenAt := map[int]int64{}
	compactions := 0
	for batch := 1; batch <= 4096; batch++ {
		steps := make([]stream.BatchStep, 4)
		for i := range steps {
			a, eps := rng.Intn(6), 0.1
			steps[i] = stream.BatchStep{Counts: []int{a, 5 - a}, Eps: &eps}
		}
		if _, _, err := s.CollectBatch(fmt.Sprintf("key-%06d", batch), steps); err != nil {
			t.Fatal(err)
		}
		journal := size("sess.journal")
		if s.persistInfo().JournalRecords == 0 {
			// A compaction rewrote the base and emptied the journal (this
			// batch's record, which it had just taken, goes uncounted).
			compactions++
			written += size("sess.snap")
		}
		if journal > prevJournal {
			written += journal - prevJournal
		}
		prevJournal = journal
		writtenAt[s.Server().T()] = written
	}
	// From T=1024 on, the idempotency memory the base carries is full.
	w1, w2 := writtenAt[4096], writtenAt[16384]
	t.Logf("%d compactions; %d bytes written by T=4096, %d by T=16384, final base %d", compactions, w1, w2, size("sess.snap"))
	if compactions < 2 {
		t.Fatalf("%d compactions: the bound does not cover the base rewrites", compactions)
	}
	// Linear growth quadruples the count from T to 4T; rewriting the
	// history every 64 steps multiplies it by about 16.
	if ratio := float64(w2) / float64(w1); ratio > 6 {
		t.Fatalf("snapshot bytes grow %.1fx from T=4096 to T=16384 (%d -> %d bytes): not linear in T", ratio, w1, w2)
	}
	if final := size("sess.snap"); w2 > 64*final {
		t.Fatalf("%d bytes written for a %d-byte base", w2, final)
	}
}

// journalCost runs one session of 4-step batches to T=8192, at least 64
// steps between compactions, with an idempotency key on every batch or
// on none. It returns the journal bytes appended per step once the
// memory is full (T >= 1024: 256 keys of 4 steps) and the number of
// compactions.
func journalCost(t *testing.T, keyed bool) (bytesPerStep float64, compactions int) {
	t.Helper()
	dir := t.TempDir()
	r := durableRegistry(t, dir, 64)
	s, err := r.Create(persistTestConfig("sess", 3, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var appended, prevSize int64
	steps := 0
	for batch := 1; batch <= 2048; batch++ {
		batchSteps := make([]stream.BatchStep, 4)
		for i := range batchSteps {
			a, eps := rng.Intn(6), 0.1
			batchSteps[i] = stream.BatchStep{Counts: []int{a, 5 - a}, Eps: &eps}
		}
		key := ""
		if keyed {
			key = fmt.Sprintf("key-%06d", batch)
		}
		if _, _, err := s.CollectBatch(key, batchSteps); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, "sess.journal"))
		if err != nil {
			t.Fatal(err)
		}
		if s.persistInfo().JournalRecords == 0 {
			compactions++
		} else if s.Server().T() > 1024 {
			appended += info.Size() - prevSize
			steps += 4
		}
		prevSize = info.Size()
	}
	return float64(appended) / float64(steps), compactions
}

// TestDeltaBytesIndependentOfIdempotency is the byte bound on what a
// keyed batch adds to the incremental state: once the idempotency
// memory is full, a session that keys every batch appends at most one
// key's bytes per batch more journal bytes per step than one that keys
// none, and compacts no more often. The bound is on the difference,
// not the ratio: the unkeyed record is only the steps, so a ratio would
// move with whatever else a record carries. Byte counts, not time, so
// it is deterministic.
func TestDeltaBytesIndependentOfIdempotency(t *testing.T) {
	plain, plainCompactions := journalCost(t, false)
	keyed, keyedCompactions := journalCost(t, true)
	// One key's bytes in a record: the marginal gob size of the
	// idempotency record of a batch like journalCost's (a 10-byte key,
	// 4 steps).
	rec := idemRecord{Key: "key-001024", FirstT: 4093, Planned: make([]bool, 4)}
	for i := range rec.Hash {
		rec.Hash[i] = byte(255 - i)
	}
	steps := make([]stream.StepRecord, 4)
	for i := range steps {
		steps[i] = stream.StepRecord{T: 4093 + i, Eps: 0.1, Published: []float64{1.5, 3.5}, NoiseDraws: uint64(8186 + 2*i)}
	}
	without, err := gobEncode(batchRecord{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	with, err := gobEncode(batchRecord{Steps: steps, Idem: &rec})
	if err != nil {
		t.Fatal(err)
	}
	perKey := float64(len(with) - len(without))
	t.Logf("journal bytes per step: %.1f unkeyed, %.1f keyed (one key: %.0f bytes per 4-step batch); compactions %d vs %d", plain, keyed, perKey, plainCompactions, keyedCompactions)
	if extra := keyed - plain; extra > perKey/4 {
		t.Fatalf("keyed batches cost %.1f journal bytes per step more than unkeyed (%.1f against %.1f), bound one key per batch = %.1f", extra, keyed, plain, perKey/4)
	}
	if keyedCompactions > plainCompactions {
		t.Fatalf("keyed run compacted %d times, unkeyed %d", keyedCompactions, plainCompactions)
	}
}

// TestDeltaBytesIndependentOfReads: durable state holds what was
// released, whatever was read in between. Two twins restore a base at
// T≈4096 that no read ever filled a forward cache for; one reads a
// correlated user's TPL series, then both land one more batch and
// compact. The read twin's journal record and base must be exactly the
// unread one's size. Storing the forward series put every correlated
// cohort's whole series (8·T bytes) in the read twin's state.
func TestDeltaBytesIndependentOfReads(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir, 1<<20)
	s, err := r.Create(deltaTestConfig("sess"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for s.Server().T() < 4096 {
		if _, _, err := s.CollectBatch("", randomBatch(rng, 5, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SnapshotNow(); err != nil { // the base
		t.Fatal(err)
	}
	written := func(read bool) (record, base int64) {
		t.Helper()
		img := copyStateDir(t, dir)
		r := durableRegistry(t, img, 1<<20)
		defer r.Close()
		if restored, failed := r.RestoreAll(); len(restored) != 1 || len(failed) != 0 {
			t.Fatalf("restore: restored %v failed %v", restored, failed)
		}
		s, err := r.Get("sess")
		if err != nil {
			t.Fatal(err)
		}
		if read {
			if _, err := s.Server().UserTPLSeries(0); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.CollectBatch("", randomBatch(rand.New(rand.NewSource(30)), 5, 3)); err != nil {
			t.Fatal(err)
		}
		record = int64(len(readStateFile(t, img, "sess.journal")))
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		_, base, err = r.Store().SnapshotStat("sess")
		if err != nil {
			t.Fatal(err)
		}
		return record, base
	}
	unreadRecord, unreadBase := written(false)
	readRecord, readBase := written(true)
	t.Logf("at T=%d: journal record %d bytes unread, %d after a read; base %d and %d", s.Server().T(), unreadRecord, readRecord, unreadBase, readBase)
	if readRecord != unreadRecord || readBase != unreadBase {
		t.Fatalf("a read changed what was written: record %d -> %d bytes, base %d -> %d", unreadRecord, readRecord, unreadBase, readBase)
	}
}

// v1FixtureScript is the batch sequence that wrote testdata/v1-state:
// the state dir of session "fixture" (deltaTestConfig) as written
// before a delta record carried only the keys added since the previous
// one (delta schema v1, whose records each hold the whole memory). It
// holds a base at T=1326, four v1 delta records whose memories grow
// from 100 keys to the full 256 (k0..k13 are evicted between the
// second and the third), and a journal tail of five keyed batches.
// snapshot marks where that build forced a snapshot. No batch retries
// a key, so the memory's order there (least recently used first) is its
// insertion order.
func v1FixtureScript(collect func(key string, steps []stream.BatchStep), snapshot func()) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 64; i++ {
		collect("", randomBatch(rng, 5, 40))
	}
	snapshot()
	key := 0
	for _, upTo := range []int{100, 200, 270, 300} {
		for ; key < upTo; key++ {
			collect(fmt.Sprintf("k%d", key), randomBatch(rng, 5, 1))
		}
		snapshot()
	}
	for i := 0; i < 5; i++ {
		collect(fmt.Sprintf("tail%d", i), randomBatch(rng, 5, 3))
	}
}

// v2FixtureScript is the batch sequence that wrote testdata/v2-state:
// the state dir of session "fixture" (deltaTestConfig) as written while
// snapshots still stored every cohort's leakage series (snapshot and
// delta schema v2). read marks where that build read the leakage,
// which filled the forward caches those snapshots stored; snapshot
// marks where it forced a snapshot. It holds a base at T=887 whose two
// cohorts carry BPL and a forward cache over all 887 steps, three v2
// delta records carrying new BPL values and changed forward suffixes
// (the second after no read), and a journal tail of five keyed batches.
func v2FixtureScript(collect func(key string, steps []stream.BatchStep), read, snapshot func()) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 48; i++ {
		collect("", randomBatch(rng, 5, 40))
	}
	read()
	snapshot() // compacts: the first delta would outgrow the empty base
	key := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			collect(fmt.Sprintf("k%d", key), randomBatch(rng, 5, 3))
			key++
		}
		if round != 1 {
			read()
		}
		snapshot()
	}
	for i := 0; i < 5; i++ {
		collect(fmt.Sprintf("tail%d", i), randomBatch(rng, 5, 3))
	}
}

// seriesBlob receives the binary encoding a v2 snapshot stored each
// cohort's leakage series in, to measure it.
type seriesBlob []byte

func (b *seriesBlob) UnmarshalBinary(data []byte) error {
	*b = append((*b)[:0], data...)
	return nil
}

// v3FixtureScript is the batch sequence that wrote testdata/v3-state:
// the state dir of session "fixture" (deltaTestConfig) as written while
// each snapshot appended a delta record behind the base (snapshot and
// delta schema v3, the journal emptied at every snapshot). snapshot
// marks where that build forced one. It holds a base at T=914 whose
// memory holds ten keys, three v3 delta records of twenty keyed batches
// each, and a journal tail of five keyed batches (T=1059).
func v3FixtureScript(collect func(key string, steps []stream.BatchStep), snapshot func()) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 40; i++ {
		key := ""
		if i%4 == 0 {
			key = fmt.Sprintf("b%d", i)
		}
		collect(key, randomBatch(rng, 5, 40))
	}
	snapshot() // compacts: the first delta would outgrow the empty base
	key := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			collect(fmt.Sprintf("k%d", key), randomBatch(rng, 5, 3))
			key++
		}
		snapshot()
	}
	for i := 0; i < 5; i++ {
		collect(fmt.Sprintf("tail%d", i), randomBatch(rng, 5, 3))
	}
}

// deltaLogVersions returns the schema version of every record in a
// delta log.
func deltaLogVersions(t *testing.T, log []byte) []uint32 {
	t.Helper()
	rd := bytes.NewReader(log)
	var out []uint32
	for rd.Len() > 0 {
		v, _, err := persist.DecodeEnvelope(rd)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// checkFixtureRestore restores a committed state dir (copied to dir)
// and requires it to match ctl, an uninterrupted in-memory run of the
// same batches: every leakage answer bit for bit, and the idempotency
// memory entry for entry, order included. The restore writes nothing:
// base, delta log and journal keep their bytes. A retry of the last
// batch replays on both; then both take more keyed batches, with a
// compaction partway that leaves no delta log behind, and a second
// restart of the base and journal reaches the same state. It returns
// the first restored session.
func checkFixtureRestore(t *testing.T, dir string, ctl *Session, lastKey string, lastSteps []stream.BatchStep, seed int64) *Session {
	t.Helper()
	restore := func() *Session {
		t.Helper()
		r := durableRegistry(t, dir, 1<<20)
		restored, failed := r.RestoreAll()
		if len(failed) != 0 || !reflect.DeepEqual(restored, []string{"fixture"}) {
			t.Fatalf("restore: restored %v failed %v", restored, failed)
		}
		s, err := r.Get("fixture")
		if err != nil {
			t.Fatal(err)
		}
		mustMatchSessions(t, ctl, s)
		mustMatchWEvent(t, ctl, s)
		if !reflect.DeepEqual(s.idem.entries(), ctl.idem.entries()) {
			t.Fatal("restored idempotency memory differs from the control's")
		}
		return s
	}
	files := map[string][]byte{}
	for _, f := range []string{"fixture.snap", "fixture.delta", "fixture.journal"} {
		files[f] = readStateFile(t, dir, f)
	}
	s := restore()
	for f, data := range files {
		if !bytes.Equal(readStateFile(t, dir, f), data) {
			t.Fatalf("restore rewrote %s", f)
		}
	}
	for _, sess := range []*Session{s, ctl} {
		res, replayed, err := sess.CollectBatch(lastKey, lastSteps)
		if err != nil || !replayed || res[len(res)-1].T != ctl.Server().T() {
			t.Fatalf("retry of %s: replayed=%v err=%v", lastKey, replayed, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 12; i++ {
		steps := randomBatch(rng, 5, 3)
		for _, sess := range []*Session{s, ctl} {
			if _, _, err := sess.CollectBatch(fmt.Sprintf("more%d", i), steps); err != nil {
				t.Fatal(err)
			}
		}
		if i == 7 {
			if _, err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			if stateFileExists(t, dir, "fixture.delta") {
				t.Fatal("the first compaction after the restore left the delta log")
			}
		}
	}
	restore()
	return s
}

// fixtureControl runs a fixture script on a fresh in-memory session and
// returns it with the script's last batch.
func fixtureControl(t *testing.T, run func(collect func(key string, steps []stream.BatchStep))) (ctl *Session, lastKey string, lastSteps []stream.BatchStep) {
	t.Helper()
	ctl, err := NewRegistry().Create(deltaTestConfig("fixture"))
	if err != nil {
		t.Fatal(err)
	}
	run(func(key string, steps []stream.BatchStep) {
		if _, _, err := ctl.CollectBatch(key, steps); err != nil {
			t.Fatal(err)
		}
		lastKey, lastSteps = key, steps
	})
	return ctl, lastKey, lastSteps
}

// TestRestoreV1StateDir restores the committed v1 state dir — four
// delta records that each hold the whole idempotency memory — through
// checkFixtureRestore.
func TestRestoreV1StateDir(t *testing.T) {
	dir := copyStateDir(t, filepath.Join("testdata", "v1-state"))
	if got := deltaLogVersions(t, readStateFile(t, dir, "fixture.delta")); !reflect.DeepEqual(got, []uint32{1, 1, 1, 1}) {
		t.Fatalf("fixture delta log versions %v, want four v1 records", got)
	}
	ctl, lastKey, lastSteps := fixtureControl(t, func(collect func(string, []stream.BatchStep)) {
		v1FixtureScript(collect, func() {})
	})
	s := checkFixtureRestore(t, dir, ctl, lastKey, lastSteps, 26)
	if _, ok := s.idem.get("k13"); ok {
		t.Fatal("k13, evicted before the third record, is remembered")
	}
}

// TestRestoreV2StateDir restores the committed v2 state dir — a base and
// delta records that store every cohort's leakage series — through
// checkFixtureRestore: restore decodes the stored series away and
// rebuilds them from the budgets.
func TestRestoreV2StateDir(t *testing.T) {
	dir := copyStateDir(t, filepath.Join("testdata", "v2-state"))
	// The fixture is what it claims to be: a v2 base whose two cohorts
	// store BPL and a full forward cache, and three v2 delta records.
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	version, body, err := store.LoadSnapshot("fixture")
	if err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Server *struct {
			Cohorts []struct{ Accountant seriesBlob }
		}
	}
	if err := gobDecode(body, &stored); err != nil {
		t.Fatal(err)
	}
	if version != schemaWithSeries || stored.Server == nil || len(stored.Server.Cohorts) != 2 {
		t.Fatalf("fixture base: version %d, server %v", version, stored.Server != nil)
	}
	for ci, c := range stored.Server.Cohorts {
		// Three float64 series over 887 steps: budgets, BPL and the
		// forward cache (without the cache, two and a few hash bytes).
		if len(c.Accountant) < 3*8*887 {
			t.Fatalf("fixture base cohort %d stores %d bytes of series, not three over 887 steps", ci, len(c.Accountant))
		}
	}
	if got := deltaLogVersions(t, readStateFile(t, dir, "fixture.delta")); !reflect.DeepEqual(got, []uint32{2, 2, 2}) {
		t.Fatalf("fixture delta log versions %v, want three v2 records", got)
	}
	ctl, lastKey, lastSteps := fixtureControl(t, func(collect func(string, []stream.BatchStep)) {
		v2FixtureScript(collect, func() {}, func() {})
	})
	checkFixtureRestore(t, dir, ctl, lastKey, lastSteps, 28)
}

// TestRestoreV3StateDir restores the committed v3 state dir — written by
// the last version that appended delta records: a v3 base holding keys,
// three v3 delta records and a keyed journal tail — through
// checkFixtureRestore.
func TestRestoreV3StateDir(t *testing.T) {
	dir := copyStateDir(t, filepath.Join("testdata", "v3-state"))
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	version, body, err := store.LoadSnapshot("fixture")
	if err != nil {
		t.Fatal(err)
	}
	base, err := decodeSessionState(version, body)
	if err != nil {
		t.Fatal(err)
	}
	if version != sessionSchemaVersion || base.Server.T() != 914 || len(base.Idem) != 10 {
		t.Fatalf("fixture base: version %d at T=%d with %d keys", version, base.Server.T(), len(base.Idem))
	}
	if got := deltaLogVersions(t, readStateFile(t, dir, "fixture.delta")); !reflect.DeepEqual(got, []uint32{3, 3, 3}) {
		t.Fatalf("fixture delta log versions %v, want three v3 records", got)
	}
	if n := len(recordEnds(t, readStateFile(t, dir, "fixture.journal"))); n != 5 {
		t.Fatalf("fixture journal holds %d records, want 5", n)
	}
	ctl, lastKey, lastSteps := fixtureControl(t, func(collect func(string, []stream.BatchStep)) {
		v3FixtureScript(collect, func() {})
	})
	checkFixtureRestore(t, dir, ctl, lastKey, lastSteps, 34)
}
