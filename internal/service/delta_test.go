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
// base with every delta-log record layered on — exactly the state a
// restore starts its journal replay from.
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
	if _, _, err := applyDeltaLog(store, name, &st); err != nil {
		t.Fatal(err)
	}
	return st
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
// ingest with interleaved reads, idempotent retries, forced snapshots
// and a plan. After every snapshot, the base ⊕ delta log on disk must
// decode to exactly the live Snapshot() and idempotency memory; after a
// restart, the session must answer every read like an uninterrupted
// in-memory run fed the same batches, and keep doing so.
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
	deltas, compactions, prevT := 0, 0, 0
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
		case i%11 == 10:
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
		}
		if s.persistInfo().JournalRecords != 0 {
			continue // no snapshot since the last batch
		}
		if s.deltaBytes == 0 {
			compactions++
		} else if T := s.Server().T(); T != prevT {
			deltas++
		}
		prevT = s.Server().T()
		got := persistedState(t, r.Store(), "sess")
		if want := s.Server().Snapshot(); !reflect.DeepEqual(got.Server, want) {
			t.Fatalf("batch %d (T=%d): persisted server state differs from Snapshot()", i, want.T())
		}
		if want := s.idem.entries(); !reflect.DeepEqual(got.Idem, want) {
			t.Fatalf("batch %d: persisted idempotency memory differs", i)
		}
	}
	if deltas < 10 || compactions < 3 {
		t.Fatalf("%d delta snapshots and %d compactions: the test does not exercise both", deltas, compactions)
	}
	// A journal tail behind the last snapshot, then the restart.
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
func readStateFile(t *testing.T, dir, name string) []byte {
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

// deltaRecordEnds returns the end offset of every record in a delta log.
func deltaRecordEnds(t *testing.T, log []byte) []int {
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
// to match the live one exactly, and the recovery snapshot to leave an
// empty journal behind a base ⊕ delta log that holds exactly the
// restored state.
func restoreCrashImage(t *testing.T, dir string, live *Session) *Session {
	t.Helper()
	r := durableRegistry(t, dir, 1<<20)
	if _, failed := r.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restore failures: %v", failed)
	}
	s, err := r.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(readStateFile(t, dir, "sess.journal")); n != 0 {
		t.Fatalf("recovery left %d bytes in the journal", n)
	}
	got := persistedState(t, r.Store(), "sess")
	if want := s.Server().Snapshot(); !reflect.DeepEqual(got.Server, want) {
		t.Fatal("after recovery, base ⊕ delta log differs from the restored state")
	}
	if want := s.idem.entries(); !reflect.DeepEqual(got.Idem, want) {
		t.Fatal("after recovery, the persisted idempotency memory differs")
	}
	mustMatchSessions(t, live, s)
	mustMatchWEvent(t, live, s)
	return s
}

// TestSnapshotDeltaCrashPoints restores the state-dir image each crash
// point of the snapshot write order leaves, and each failure it must
// survive: every one restores to the live session exactly, except a
// damaged middle delta, which must fail loudly and keep its files.
func TestSnapshotDeltaCrashPoints(t *testing.T) {
	// start returns a session with a base of a few hundred steps, four
	// deltas and a journal tail (snapshots only when forced).
	start := func(t *testing.T) (string, *Registry, *Session, func(n int)) {
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
		for i := 0; i < 4; i++ {
			ingest(3)
			if _, err := s.Server().Report(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(deltaRecordEnds(t, readStateFile(t, dir, "sess.delta"))); n != 4 {
			t.Fatalf("setup wrote %d deltas, want 4", n)
		}
		ingest(2)
		return dir, r, s, ingest
	}

	t.Run("torn-final-delta", func(t *testing.T) {
		dir, _, s, _ := start(t)
		pre := copyStateDir(t, dir)
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		log := readStateFile(t, dir, "sess.delta")
		ends := deltaRecordEnds(t, log)
		last := ends[len(ends)-2]
		for _, cut := range []int{last + 1, last + 60, len(log) - 1} {
			img := copyStateDir(t, pre)
			writeStateFile(t, img, "sess.delta", log[:cut])
			restoreCrashImage(t, img, s)
			if n := len(readStateFile(t, img, "sess.delta")); n != 0 {
				t.Fatalf("recovery behind a torn delta did not compact: %d delta bytes", n)
			}
		}
	})

	t.Run("after-delta-fsync-before-journal-reset", func(t *testing.T) {
		dir, _, s, _ := start(t)
		pre := copyStateDir(t, dir)
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		writeStateFile(t, pre, "sess.delta", readStateFile(t, dir, "sess.delta"))
		restoreCrashImage(t, pre, s)
	})

	t.Run("clean-restart-appends-a-delta", func(t *testing.T) {
		// Behind a clean delta log, recovery bakes the journal tail into
		// one more delta record instead of rewriting the base — and the
		// restored session keeps extending that log.
		dir, _, s, _ := start(t)
		img := copyStateDir(t, dir)
		base := readStateFile(t, img, "sess.snap")
		records := len(deltaRecordEnds(t, readStateFile(t, img, "sess.delta")))
		s2 := restoreCrashImage(t, img, s)
		if !bytes.Equal(readStateFile(t, img, "sess.snap"), base) {
			t.Fatal("recovery behind a clean delta log rewrote the base")
		}
		if n := len(deltaRecordEnds(t, readStateFile(t, img, "sess.delta"))); n != records+1 {
			t.Fatalf("%d delta records after recovery, want %d", n, records+1)
		}
		if _, _, err := s2.CollectBatch("again", []stream.BatchStep{{Counts: []int{2, 3}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		if n := len(deltaRecordEnds(t, readStateFile(t, img, "sess.delta"))); n != records+2 {
			t.Fatalf("%d delta records after one more snapshot, want %d", n, records+2)
		}
		restoreCrashImage(t, copyStateDir(t, img), s2)
	})

	t.Run("after-base-rename-before-delta-truncate", func(t *testing.T) {
		dir, _, s, _ := start(t)
		pre := copyStateDir(t, dir)
		s.stepMu.Lock()
		s.cursor = noCursor // the next snapshot compacts
		s.stepMu.Unlock()
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		if n := len(readStateFile(t, dir, "sess.delta")); n != 0 {
			t.Fatalf("compaction left %d bytes in the delta log", n)
		}
		// The new base beside the old delta log and journal: every
		// delta is covered by the base and must be skipped.
		writeStateFile(t, pre, "sess.snap", readStateFile(t, dir, "sess.snap"))
		restoreCrashImage(t, pre, s)
	})

	t.Run("idle-delta-beside-stale-deltas", func(t *testing.T) {
		// A compaction, a read that refreshes the forward series, then
		// a snapshot with no new step: its delta has the same FromT/ToT
		// as the superseded deltas a crash before the truncate leaves
		// behind, and only it must be applied.
		dir, _, s, _ := start(t)
		stale := readStateFile(t, dir, "sess.delta")
		s.stepMu.Lock()
		s.cursor = noCursor
		s.stepMu.Unlock()
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Server().Report(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		fresh := readStateFile(t, dir, "sess.delta")
		if n := len(deltaRecordEnds(t, fresh)); n != 1 {
			t.Fatalf("%d delta records after the idle snapshot, want 1", n)
		}
		writeStateFile(t, dir, "sess.delta", append(append([]byte(nil), stale...), fresh...))
		got := persistedState(t, s.store, "sess")
		if want := s.Server().Snapshot(); !reflect.DeepEqual(got.Server, want) {
			t.Fatal("base ⊕ delta log differs from Snapshot() beside superseded deltas")
		}
		restoreCrashImage(t, copyStateDir(t, dir), s)
	})

	t.Run("failed-delta-append-compacts-next", func(t *testing.T) {
		dir, r, s, ingest := start(t)
		s.stepMu.Lock()
		s.deltaLog.Close() // every write through the handle now fails
		s.stepMu.Unlock()
		if _, err := s.SnapshotNow(); err == nil {
			t.Fatal("snapshot through a closed delta log succeeded")
		}
		if h := r.PersistenceHealth(); h.SessionsWithErrors != 1 {
			t.Fatalf("failed delta append not latched: %+v", h)
		}
		// What a failed append can leave: a partial record.
		log := readStateFile(t, dir, "sess.delta")
		writeStateFile(t, dir, "sess.delta", append(log, log[:40]...))
		ingest(1)
		restoreCrashImage(t, copyStateDir(t, dir), s)

		if _, err := s.SnapshotNow(); err != nil {
			t.Fatalf("the snapshot after a failed append: %v", err)
		}
		if n := len(readStateFile(t, dir, "sess.delta")); n != 0 {
			t.Fatalf("the snapshot after a failed append did not compact: %d delta bytes", n)
		}
		if h := r.PersistenceHealth(); h.SessionsWithErrors != 0 {
			t.Fatalf("compaction did not clear the latched error: %+v", h)
		}
		ingest(2)
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		if n := len(deltaRecordEnds(t, readStateFile(t, dir, "sess.delta"))); n != 1 {
			t.Fatalf("%d delta records after the compaction and one snapshot, want 1", n)
		}
		restoreCrashImage(t, copyStateDir(t, dir), s)
	})

	t.Run("corrupt-middle-delta", func(t *testing.T) {
		dir, _, _, _ := start(t)
		img := copyStateDir(t, dir)
		log := readStateFile(t, img, "sess.delta")
		ends := deltaRecordEnds(t, log)
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

// TestSnapshotBytesLinearInT is the byte bound: the bytes snapshots
// write to the base and the delta log grow linearly in T, where
// rewriting the whole history at every snapshot grows quadratically.
// It counts file sizes, not time, so it is deterministic.
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
	var written, prevDelta int64
	writtenAt := map[int]int64{}
	for batch := 1; batch <= 4096; batch++ {
		steps := make([]stream.BatchStep, 4)
		for i := range steps {
			a, eps := rng.Intn(6), 0.1
			steps[i] = stream.BatchStep{Counts: []int{a, 5 - a}, Eps: &eps}
		}
		if _, _, err := s.CollectBatch(fmt.Sprintf("key-%06d", batch), steps); err != nil {
			t.Fatal(err)
		}
		if s.persistInfo().JournalRecords != 0 {
			continue
		}
		// A snapshot landed: a compaction rewrote the base and emptied
		// the delta log, a delta appended to it.
		if d := size("sess.delta"); d == 0 {
			written += size("sess.snap")
			prevDelta = 0
		} else {
			written += d - prevDelta
			prevDelta = d
		}
		writtenAt[s.Server().T()] = written
	}
	// From T=1024 on, the idempotency memory the base carries is full,
	// and a delta carries only the keys added since the previous one.
	w1, w2 := writtenAt[4096], writtenAt[16384]
	if w1 == 0 || w2 == 0 {
		t.Fatalf("no snapshot at T=4096 or T=16384: %v", writtenAt)
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

// deltaLogCost runs one session of 4-step batches to T=8192, snapshots
// every 64 steps, with an idempotency key on every batch or on none. It
// returns the delta-log bytes appended per step by the records after
// the memory is full (T >= 1024: 256 keys of 4 steps) and the number of
// compactions.
func deltaLogCost(t *testing.T, keyed bool) (bytesPerStep float64, compactions int) {
	t.Helper()
	dir := t.TempDir()
	r := durableRegistry(t, dir, 64)
	s, err := r.Create(persistTestConfig("sess", 3, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var appended, prevSize int64
	steps, prevT := 0, 0
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
		if s.persistInfo().JournalRecords != 0 {
			continue
		}
		info, err := os.Stat(filepath.Join(dir, "sess.delta"))
		if err != nil {
			t.Fatal(err)
		}
		T := s.Server().T()
		if info.Size() == 0 {
			compactions++
		} else if prevT >= 1024 {
			appended += info.Size() - prevSize
			steps += T - prevT
		}
		prevSize, prevT = info.Size(), T
	}
	return float64(appended) / float64(steps), compactions
}

// TestDeltaBytesIndependentOfIdempotency is the byte bound on the delta
// record: once the idempotency memory is full, a session that keys
// every batch appends at most one key's bytes per batch more delta-log
// bytes per step than one that keys none, and compacts no more often. A record carries the keys added since the previous one,
// not the whole memory; carrying all 256 entries made each keyed record
// several times the unkeyed one. The bound is on the difference, not
// the ratio: the unkeyed record is only the steps, so a ratio would
// move with whatever else a record carries. Byte counts, not time, so
// it is deterministic.
func TestDeltaBytesIndependentOfIdempotency(t *testing.T) {
	plain, plainCompactions := deltaLogCost(t, false)
	keyed, keyedCompactions := deltaLogCost(t, true)
	// One more key's bytes in a record: the marginal gob size of an
	// idemRecord like deltaLogCost's (a 10-byte key, 4 steps).
	rec := idemRecord{Key: "key-001024", FirstT: 4093, Planned: make([]bool, 4)}
	for i := range rec.Hash {
		rec.Hash[i] = byte(255 - i)
	}
	one, err := gobEncode([]idemRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	two, err := gobEncode([]idemRecord{rec, rec})
	if err != nil {
		t.Fatal(err)
	}
	perKey := float64(len(two) - len(one))
	t.Logf("delta-log bytes per step: %.1f unkeyed, %.1f keyed (one key: %.0f bytes per 4-step batch); compactions %d vs %d", plain, keyed, perKey, plainCompactions, keyedCompactions)
	if extra := keyed - plain; extra > perKey/4 {
		t.Fatalf("keyed batches cost %.1f delta-log bytes per step more than unkeyed (%.1f against %.1f), bound one key per batch = %.1f", extra, keyed, plain, perKey/4)
	}
	if keyedCompactions > plainCompactions {
		t.Fatalf("keyed run compacted %d times, unkeyed %d", keyedCompactions, plainCompactions)
	}
}

// TestDeltaBytesIndependentOfReads: a delta record holds what was
// released since the previous snapshot, whatever was read in between.
// Two twins restore a base at T≈4096 that no read ever filled a forward
// cache for; one reads a correlated user's TPL series, then both land
// one more batch and snapshot. The read twin's delta record must stay
// within 1.25x the unread one's. Storing the forward series put every
// correlated cohort's whole series (8·T bytes) in the read twin's
// record.
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
	if _, err := s.SnapshotNow(); err != nil { // compacts: the base
		t.Fatal(err)
	}
	lastRecord := func(read bool) int {
		t.Helper()
		r := durableRegistry(t, copyStateDir(t, dir), 1<<20)
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
		if _, err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		last := 0
		if _, err := r.Store().ReplayDeltaLog("sess", func(_ uint32, body []byte) error {
			last = len(body)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return last
	}
	unread, read := lastRecord(false), lastRecord(true)
	t.Logf("delta record at T=%d: %d bytes unread, %d bytes after a read", s.Server().T(), unread, read)
	if float64(read) > 1.25*float64(unread) {
		t.Fatalf("a read grew the next delta record from %d to %d bytes", unread, read)
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

// TestRestoreV1StateDir restores the committed v1 state dir and requires
// it to match an uninterrupted in-memory run of the same batches: every
// leakage answer bit for bit, and the idempotency memory entry for
// entry, order included. The recovery snapshot appends a v2 record
// behind the v1 ones, and a second restart reads that mixed log to the
// same state.
func TestRestoreV1StateDir(t *testing.T) {
	dir := copyStateDir(t, filepath.Join("testdata", "v1-state"))
	if got := deltaLogVersions(t, readStateFile(t, dir, "fixture.delta")); !reflect.DeepEqual(got, []uint32{1, 1, 1, 1}) {
		t.Fatalf("fixture delta log versions %v, want four v1 records", got)
	}
	ctl, err := NewRegistry().Create(deltaTestConfig("fixture"))
	if err != nil {
		t.Fatal(err)
	}
	var lastKey string
	var lastSteps []stream.BatchStep
	v1FixtureScript(func(key string, steps []stream.BatchStep) {
		if _, _, err := ctl.CollectBatch(key, steps); err != nil {
			t.Fatal(err)
		}
		lastKey, lastSteps = key, steps
	}, func() {})

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
	s := restore()
	if n := len(s.idem.entries()); n != idemCacheSize {
		t.Fatalf("restored memory holds %d keys, want %d", n, idemCacheSize)
	}
	if _, ok := s.idem.get("k13"); ok {
		t.Fatal("k13, evicted before the third record, is remembered")
	}
	for _, sess := range []*Session{s, ctl} {
		res, replayed, err := sess.CollectBatch(lastKey, lastSteps)
		if err != nil || !replayed || res[len(res)-1].T != ctl.Server().T() {
			t.Fatalf("retry of %s: replayed=%v err=%v", lastKey, replayed, err)
		}
	}
	if got := deltaLogVersions(t, readStateFile(t, dir, "fixture.delta")); !reflect.DeepEqual(got, []uint32{1, 1, 1, 1, deltaSchemaVersion}) {
		t.Fatalf("delta log versions after recovery %v, want the v1 records and one v2", got)
	}
	// More keyed batches, a v2 record, a journal tail, a second restart.
	rng := rand.New(rand.NewSource(26))
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
		}
	}
	restore()
}

// seriesBlob receives the binary encoding a v2 snapshot stored each
// cohort's leakage series in, to measure it.
type seriesBlob []byte

func (b *seriesBlob) UnmarshalBinary(data []byte) error {
	*b = append((*b)[:0], data...)
	return nil
}

// TestRestoreV2StateDir restores the committed v2 state dir — a base and
// delta records that store every cohort's leakage series — and requires
// it to match an uninterrupted in-memory run of the same batches: every
// leakage answer bit for bit, and the idempotency memory entry for
// entry. Restore decodes the stored series away and rebuilds them from
// the budgets. The recovery snapshot appends a v3 record behind the v2
// ones, and a second restart reads that mixed log to the same state.
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

	ctl, err := NewRegistry().Create(deltaTestConfig("fixture"))
	if err != nil {
		t.Fatal(err)
	}
	var lastKey string
	var lastSteps []stream.BatchStep
	v2FixtureScript(func(key string, steps []stream.BatchStep) {
		if _, _, err := ctl.CollectBatch(key, steps); err != nil {
			t.Fatal(err)
		}
		lastKey, lastSteps = key, steps
	}, func() {}, func() {})

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
	s := restore()
	for _, sess := range []*Session{s, ctl} {
		res, replayed, err := sess.CollectBatch(lastKey, lastSteps)
		if err != nil || !replayed || res[len(res)-1].T != ctl.Server().T() {
			t.Fatalf("retry of %s: replayed=%v err=%v", lastKey, replayed, err)
		}
	}
	if got := deltaLogVersions(t, readStateFile(t, dir, "fixture.delta")); !reflect.DeepEqual(got, []uint32{2, 2, 2, deltaSchemaVersion}) {
		t.Fatalf("delta log versions after recovery %v, want the v2 records and one v%d", got, deltaSchemaVersion)
	}
	// More keyed batches, a v3 record, a journal tail, a second restart.
	rng := rand.New(rand.NewSource(28))
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
		}
	}
	restore()
}
