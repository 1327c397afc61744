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
// base with the journal folded on, and the idempotency memory those
// leave — exactly the state a restore charges.
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

// recordEnds returns the end offset of every record in a journal.
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
// to match the live one exactly, the restore not to have rewritten the
// base, and a compaction after it to leave a fresh base and an empty
// journal, which restore again to the same session.
func restoreCrashImage(t *testing.T, dir string, live *Session) *Session {
	t.Helper()
	base := readStateFile(t, dir, "sess.snap")
	r := durableRegistry(t, dir, 1<<20)
	if _, failed := r.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restore failures: %v", failed)
	}
	s, err := r.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readStateFile(t, dir, "sess.snap"), base) {
		t.Fatal("recovery rewrote the base")
	}
	mustMatchSessions(t, live, s)
	mustMatchWEvent(t, live, s)
	if !reflect.DeepEqual(s.idem.entries(), live.idem.entries()) {
		t.Fatal("restored idempotency memory differs")
	}
	if _, err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if n := len(readStateFile(t, dir, "sess.journal")); n != 0 {
		t.Fatalf("the compaction after recovery left %d journal bytes", n)
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
// point of a compaction (base, then journal truncate) and of a journal
// append leaves, and each failure restore must survive: every one
// restores to the live session exactly.
func TestSnapshotDeltaCrashPoints(t *testing.T) {
	// start returns a session with a base of a few hundred steps and a
	// keyed journal tail (compactions only when forced).
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
		ingest(14)
		return dir, r, s, ingest
	}

	t.Run("after-base-save-before-journal-truncate", func(t *testing.T) {
		// The new base beside the journal it covers: every journal
		// record is at or before the base and must be skipped.
		dir, _, s, _ := start(t)
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
		dir, _, s, _ := start(t)
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
		dir, _, _, ingest := start(t)
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
		dir, r, s, ingest := start(t)
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

// checkFixtureRestore restores a committed state dir (copied to dir)
// and requires it to match ctl, an uninterrupted in-memory run of the
// same batches: every leakage answer bit for bit, and the idempotency
// memory entry for entry, order included. The restore writes nothing:
// base and journal keep their bytes. A retry of the last batch replays
// on both; then both take more keyed batches, with a compaction partway
// that writes a base of the current schema, and a second restart of the
// base and journal reaches the same state. It returns the first
// restored session.
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
	for _, f := range []string{"fixture.snap", "fixture.journal"} {
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
			if version, _, err := s.store.LoadSnapshot("fixture"); err != nil || version != sessionSchemaVersion {
				t.Fatalf("the first compaction after the restore wrote a v%d base (%v), want v%d", version, err, sessionSchemaVersion)
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

// v3JournalFixtureScript is the batch sequence that wrote
// testdata/v3-journal-state: the state dir of session "fixture"
// (deltaTestConfig) as written once the journal was the incremental
// snapshot (snapshot schema v3, whose base carries a BaseID, and journal
// schema v2, no delta log). snapshot marks where that build forced a
// compaction. It holds a base at T=1107 whose memory holds sixteen keys,
// and a journal tail of eight batches, seven keyed (T=1124).
func v3JournalFixtureScript(collect func(key string, steps []stream.BatchStep), snapshot func()) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 48; i++ {
		key := ""
		if i%3 == 0 {
			key = fmt.Sprintf("b%d", i)
		}
		collect(key, randomBatch(rng, 5, 40))
	}
	snapshot()
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("tail%d", i)
		if i == 5 {
			key = ""
		}
		collect(key, randomBatch(rng, 5, 3))
	}
}

// TestRestoreV3JournalStateDir restores the committed v3-journal state
// dir — a v3 base whose BaseID is set and whose memory holds sixteen
// keys, a keyed journal tail and no delta log, as the last version to
// write BaseIDs left it — through checkFixtureRestore.
func TestRestoreV3JournalStateDir(t *testing.T) {
	dir := copyStateDir(t, filepath.Join("testdata", "v3-journal-state"))
	// The fixture is what it claims to be.
	version, body, err := persist.DecodeEnvelope(bytes.NewReader(readStateFile(t, dir, "fixture.snap")))
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Server *stream.ServerState
		Idem   []idemRecord
		BaseID uint64
	}
	if err := gobDecode(body, &base); err != nil {
		t.Fatal(err)
	}
	if version != schemaWithBaseTag || base.BaseID == 0 || base.Server.T() != 1107 || len(base.Idem) != 16 {
		t.Fatalf("fixture base: version %d, BaseID %x, T=%d, %d keys", version, base.BaseID, base.Server.T(), len(base.Idem))
	}
	if n := len(recordEnds(t, readStateFile(t, dir, "fixture.journal"))); n != 8 {
		t.Fatalf("fixture journal holds %d records, want 8", n)
	}
	if stateFileExists(t, dir, "fixture.delta") {
		t.Fatal("fixture has a delta log")
	}
	// A migration that version pushes carries the same v3 body.
	if _, err := NewRegistry().ImportSession(version, body); err != nil {
		t.Fatalf("importing a v3 body: %v", err)
	}
	ctl, lastKey, lastSteps := fixtureControl(t, func(collect func(string, []stream.BatchStep)) {
		v3JournalFixtureScript(collect, func() {})
	})
	checkFixtureRestore(t, dir, ctl, lastKey, lastSteps, 42)
}

// TestRestoreRefusesLegacyState: restore reads one layout, a v3 or v4
// base plus a journal. A state dir in any other fails closed — the
// session is reported in failed, nothing is registered under its name,
// and every file keeps its bytes, for the operator to upgrade through
// the previous version. A session created under the name afterwards
// owns it: its first base removes a stale delta log, and it restores.
func TestRestoreRefusesLegacyState(t *testing.T) {
	v3 := filepath.Join("testdata", "v3-state")
	for _, tc := range []struct {
		name  string
		files map[string][]byte
		want  string
	}{
		// The last layout that wrote delta records: a base, three delta
		// records and a keyed journal tail.
		{"v3-state", map[string][]byte{
			"fixture.snap":    readStateFile(t, v3, "fixture.snap"),
			"fixture.delta":   readStateFile(t, v3, "fixture.delta"),
			"fixture.journal": readStateFile(t, v3, "fixture.journal"),
		}, "has a delta log"},
		// That layout right after a snapshot's delta append emptied the
		// journal: the base and its delta records, an empty journal. The
		// base alone is a valid session at a shorter T, so only the
		// delta-log check keeps it from restoring and under-charging.
		{"delta-beside-empty-journal", map[string][]byte{
			"fixture.snap":    readStateFile(t, v3, "fixture.snap"),
			"fixture.delta":   readStateFile(t, v3, "fixture.delta"),
			"fixture.journal": {},
		}, "has a delta log"},
		// A base of a schema this version does not read.
		{"v2-snapshot", map[string][]byte{
			"fixture.snap": readStateFile(t, filepath.Join("testdata", "v2-state"), "fixture.snap"),
		}, "snapshot schema version 2 not supported"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for f, data := range tc.files {
				writeStateFile(t, dir, f, data)
			}
			r := durableRegistry(t, dir, 1<<20)
			restored, failed := r.RestoreAll()
			if len(restored) != 0 || len(failed) != 1 {
				t.Fatalf("restored %v, failed %v", restored, failed)
			}
			if err := failed["fixture"]; err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want %q", err, tc.want)
			}
			if _, err := r.Get("fixture"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("refused session is live: %v", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(tc.files) {
				t.Fatalf("the refused restore left %d files, want %d", len(entries), len(tc.files))
			}
			for f, data := range tc.files {
				if !bytes.Equal(readStateFile(t, dir, f), data) {
					t.Fatalf("the refused restore modified %s", f)
				}
			}

			s, err := r.Create(deltaTestConfig("fixture"))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(44))
			for i := 0; i < 6; i++ {
				if _, _, err := s.CollectBatch(fmt.Sprintf("new%d", i), randomBatch(rng, 5, 3)); err != nil {
					t.Fatal(err)
				}
			}
			if stateFileExists(t, dir, "fixture.delta") {
				t.Fatal("the new session's first base left the stale delta log")
			}
			r2 := durableRegistry(t, copyStateDir(t, dir), 1<<20)
			if restored, failed := r2.RestoreAll(); len(failed) != 0 || !reflect.DeepEqual(restored, []string{"fixture"}) {
				t.Fatalf("restart of the new session: restored %v failed %v", restored, failed)
			}
			s2, err := r2.Get("fixture")
			if err != nil {
				t.Fatal(err)
			}
			mustMatchSessions(t, s, s2)
			if !reflect.DeepEqual(s2.idem.entries(), s.idem.entries()) {
				t.Fatal("restored idempotency memory differs")
			}
		})
	}
	// The second image without its delta log restores, to the base's T,
	// though the journal tail that followed those records starts steps
	// later: the delta log held history the base does not.
	dir := t.TempDir()
	writeStateFile(t, dir, "fixture.snap", readStateFile(t, v3, "fixture.snap"))
	writeStateFile(t, dir, "fixture.journal", nil)
	r := durableRegistry(t, dir, 1<<20)
	if restored, failed := r.RestoreAll(); len(failed) != 0 || len(restored) != 1 {
		t.Fatalf("the base alone: restored %v failed %v", restored, failed)
	}
	s, err := r.Get("fixture")
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := persist.DecodeEnvelope(bytes.NewReader(readStateFile(t, v3, "fixture.journal")))
	if err != nil {
		t.Fatal(err)
	}
	var next batchRecord
	if err := gobDecode(body, &next); err != nil {
		t.Fatal(err)
	}
	if T, first := s.Server().T(), next.Steps[0].T; first <= T+1 {
		t.Fatalf("the base alone restores to T=%d and the journal tail starts at step %d: the delta log adds nothing", T, first)
	}
}
