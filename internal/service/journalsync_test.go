package service

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/persist"
)

// syncedRegistry builds a durable registry in dir with the given
// journal sync mode and group-commit window.
func syncedRegistry(t *testing.T, dir string, mode JournalSyncMode, window time.Duration) *Registry {
	t.Helper()
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.SetJournalSync(mode, window); err != nil {
		t.Fatal(err)
	}
	if err := r.EnablePersistence(store, 100); err != nil { // coalescing never fires
		t.Fatal(err)
	}
	return r
}

// TestJournalSyncDifferentialReplay is the differential test behind the
// group-commit optimisation: the SAME seeded workload journaled under
// per-batch fsync ("step", the reference), group commit (with no linger,
// the default, and with a window) and plain appends must recover to
// bit-identical sessions after a crash (no graceful Close, so recovery
// replays the journal). Group commit only batches fsyncs — it must
// never change what replay reconstructs.
func TestJournalSyncDifferentialReplay(t *testing.T) {
	const steps = 7
	type variant struct {
		name   string
		mode   JournalSyncMode
		window time.Duration
	}
	// The first variant is the reference.
	variants := []variant{
		{"step", JournalSyncStep, 0},
		{"group", JournalSyncGroup, 0},
		{"group-window", JournalSyncGroup, 500 * time.Microsecond},
		{"none", JournalSyncNone, 0},
	}

	restoredByVariant := func(t *testing.T, tearTail bool) []*Session {
		t.Helper()
		out := make([]*Session, len(variants))
		for i, v := range variants {
			dir := t.TempDir()
			r1 := syncedRegistry(t, dir, v.mode, v.window)
			s1, err := r1.Create(persistTestConfig("sess", 1234, false))
			if err != nil {
				t.Fatal(err)
			}
			stepSession(t, s1, rand.New(rand.NewSource(6)), steps)
			if info := s1.persistInfo(); info.JournalRecords != steps {
				t.Fatalf("%s: journal holds %d records, want %d", v.name, info.JournalRecords, steps)
			}
			if tearTail {
				// A crash mid-append leaves a torn final record; replay
				// must stop there identically in every mode.
				jpath := filepath.Join(dir, "sess.journal")
				raw, err := os.ReadFile(jpath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(jpath, raw[:len(raw)-5], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// No r1.Close(): the crash. Restore into a fresh registry.
			r2 := syncedRegistry(t, dir, v.mode, v.window)
			if _, failed := r2.RestoreAll(); len(failed) != 0 {
				t.Fatalf("%s: restore failures: %v", v.name, failed)
			}
			s2, err := r2.Get("sess")
			if err != nil {
				t.Fatal(err)
			}
			out[i] = s2
		}
		return out
	}

	for _, tc := range []struct {
		name     string
		tearTail bool
		wantT    int
	}{
		{"intact", false, steps},
		{"torn-tail", true, steps - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restored := restoredByVariant(t, tc.tearTail)
			for i, v := range variants {
				if got := restored[i].Server().T(); got != tc.wantT {
					t.Fatalf("%s replay reached T=%d, want %d", v.name, got, tc.wantT)
				}
				if i > 0 {
					mustMatchSessions(t, restored[0], restored[i])
				}
			}
		})
	}
}

// TestSetJournalSyncValidation: unknown modes are rejected, and the
// mode is boot wiring — immutable once sessions exist.
func TestSetJournalSyncValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.SetJournalSync("fsync-sometimes", 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := r.Create(persistTestConfig("sess", 7, false)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetJournalSync(JournalSyncGroup, 0); err == nil {
		t.Fatal("SetJournalSync accepted with live sessions")
	}
}

// TestSetJournalSyncReplacesCommitter: a second group-mode call installs
// a fresh committer with its own window and closes the one it replaces,
// rather than keeping the first call's window.
func TestSetJournalSyncReplacesCommitter(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	if err := r.SetJournalSync(JournalSyncGroup, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	first := r.committer
	if err := r.SetJournalSync(JournalSyncGroup, time.Minute); err != nil {
		t.Fatal(err)
	}
	if r.committer == first {
		t.Fatal("second SetJournalSync kept the first committer and its window")
	}
	if err := first.Append(nil, 1, nil); err != persist.ErrCommitterClosed {
		t.Fatalf("replaced committer: Append = %v, want ErrCommitterClosed", err)
	}
	if err := r.SetJournalSync(JournalSyncStep, 0); err != nil {
		t.Fatal(err)
	}
	if r.committer != nil {
		t.Fatal("step mode kept a group committer")
	}
}
