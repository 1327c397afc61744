package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
)

// exportedBody is the migration body of a fresh session named name with
// the given population, as a migrating peer would push it.
func exportedBody(t *testing.T, name string, users int) []byte {
	t.Helper()
	s, err := NewRegistry().Create(&SessionConfig{Name: name, Domain: 2, Users: users, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	body, err := s.encodeStateLocked(s.srv.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFailedAdmitKeepsMigrationRedirect: a Create or ImportSession under
// a migrated-away name that fails to write its first snapshot must leave
// the 421 redirect as it found it — in memory and on disk — rather than
// turning the name into a 404.
func TestFailedAdmitKeepsMigrationRedirect(t *testing.T) {
	const loc = "http://peer.invalid:8080"
	for _, via := range []string{"create", "import"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			store, err := persist.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.SaveTombstone("x", loc); err != nil {
				t.Fatal(err)
			}
			r := durableRegistry(t, dir, 4)
			if _, failed := r.RestoreAll(); len(failed) != 0 {
				t.Fatalf("restore: %v", failed)
			}
			// A non-empty directory where x.snap goes makes the first
			// snapshot's rename fail.
			if err := os.MkdirAll(filepath.Join(dir, "x.snap", "keep"), 0o755); err != nil {
				t.Fatal(err)
			}
			switch via {
			case "create":
				_, err = r.Create(&SessionConfig{Name: "x", Domain: 2, Users: 2, Seed: 1})
			case "import":
				_, err = r.ImportSession(sessionSchemaVersion, exportedBody(t, "x", 2))
			}
			if err == nil {
				t.Fatal("admit succeeded although its first snapshot cannot be written")
			}
			var ws *WrongShardError
			if _, err := r.Get("x"); !errors.As(err, &ws) || ws.Location != loc {
				t.Fatalf("Get(x) after the failed %s = %v, want the redirect to %s", via, err, loc)
			}
			if n := r.Users(); n != 0 {
				t.Fatalf("failed %s kept %d users reserved", via, n)
			}
			// On disk too: a restart still redirects.
			if err := os.RemoveAll(filepath.Join(dir, "x.snap")); err != nil {
				t.Fatal(err)
			}
			r2 := durableRegistry(t, dir, 4)
			if _, failed := r2.RestoreAll(); len(failed) != 0 {
				t.Fatalf("restart: %v", failed)
			}
			if _, err := r2.Get("x"); !errors.As(err, &ws) || ws.Location != loc {
				t.Fatalf("Get(x) after restart = %v, want the redirect to %s", err, loc)
			}
		})
	}
}

// TestLifecycleRace runs concurrent Create, Delete, ImportSession,
// Migrate (to a live peer) and steps over a few names on a durable
// registry, then checks that the registry, its state dir and a restart
// on that dir all agree on each name: live with its users counted once
// and a snapshot on disk, redirected with a tombstone and no session
// files, or gone with no files at all.
func TestLifecycleRace(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir, 4)
	peer := NewAPI()
	peerSrv := httptest.NewServer(peer.Handler())
	defer peerSrv.Close()

	names := []string{"a", "b", "c"}
	users := map[string]int{"a": 1, "b": 2, "c": 4} // distinct, so a miscount shows in the sum
	bodies := make(map[string][]byte)
	for _, n := range names {
		bodies[n] = exportedBody(t, n, users[n])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 80; i++ {
				// Each operation may lose its race (exists, not found,
				// moved, refused by the peer); only the end state is
				// checked.
				name := names[rng.Intn(len(names))]
				switch rng.Intn(6) {
				case 0:
					r.Create(&SessionConfig{Name: name, Domain: 2, Users: users[name], Seed: 1})
				case 1:
					r.Delete(name)
				case 2:
					r.ImportSession(sessionSchemaVersion, bodies[name])
				case 3:
					r.Migrate(context.Background(), name, peerSrv.URL)
				case 4:
					// Frees the name at the peer, so it can migrate again.
					peer.Registry().Delete(name)
				case 5:
					if s, err := r.Get(name); err == nil {
						eps := 0.1
						s.CollectBatch("", []stream.BatchStep{{Values: make([]int, users[name]), Eps: &eps}})
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()

	exists := func(file string) bool {
		_, err := os.Stat(filepath.Join(dir, file))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		return err == nil
	}
	// state answers what the registry says about name: "live", "moved"
	// or "gone".
	state := func(r *Registry, name string) (string, int) {
		s, err := r.Get(name)
		var ws *WrongShardError
		switch {
		case err == nil:
			return "live", s.srv.Users()
		case errors.As(err, &ws) && ws.Location == peerSrv.URL:
			return "moved", 0
		case errors.Is(err, ErrNotFound):
			return "gone", 0
		}
		t.Fatalf("Get(%s) = %v", name, err)
		return "", 0
	}
	sum := 0
	answers := make(map[string]string)
	for _, n := range names {
		st, u := state(r, n)
		answers[n] = st
		sum += u
		files := fmt.Sprintf("snap=%v journal=%v delta=%v tomb=%v",
			exists(n+".snap"), exists(n+".journal"), exists(n+".delta"), exists(n+".tomb"))
		want := map[string]string{
			"moved": "snap=false journal=false delta=false tomb=true",
			"gone":  "snap=false journal=false delta=false tomb=false",
		}[st]
		if st == "live" {
			if !exists(n+".snap") || exists(n+".tomb") {
				t.Errorf("live session %s: %s, want a snapshot and no tombstone", n, files)
			}
		} else if files != want {
			t.Errorf("%s session %s: %s, want %s", st, n, files, want)
		}
	}
	if got := r.Users(); got != sum {
		t.Errorf("Users() = %d, live sessions declare %d", got, sum)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := durableRegistry(t, dir, 4)
	if _, failed := r2.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restart: %v", failed)
	}
	for _, n := range names {
		if st, _ := state(r2, n); st != answers[n] {
			t.Errorf("session %s is %s after a restart, was %s", n, st, answers[n])
		}
	}
	if got := r2.Users(); got != sum {
		t.Errorf("Users() after restart = %d, want %d", got, sum)
	}
}

// TestDeleteKeepsNameUntilFilesDropped: a Delete waiting behind in-flight
// work on its session (a step or a migration push holds the session's
// stepMu) keeps the name until the session's files are gone. A Create of
// the same name in the meantime is refused, rather than admitted and then
// left live without the snapshot the Delete removes under it.
func TestDeleteKeepsNameUntilFilesDropped(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir, 4)
	cfg := &SessionConfig{Name: "x", Domain: 2, Users: 1, Seed: 1}
	s, err := r.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.stepMu.Lock()
	done := make(chan error, 1)
	go func() { done <- r.Delete("x") }()
	// Let the Delete get as far as it can without the session's stepMu.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, err := r.Get("x"); err != nil {
			break
		}
	}
	_, createErr := r.Create(cfg)
	s.stepMu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := r.Get("x"); err == nil {
		if _, err := os.Stat(filepath.Join(dir, "x.snap")); err != nil {
			t.Fatalf("a Create during the Delete (err %v) left x live without its snapshot: %v", createErr, err)
		}
	}
	if _, err := r.Create(cfg); err != nil {
		t.Fatalf("Create after the Delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x.snap")); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteFencesHeldSession: a writer that looked a session up before
// a Delete and still holds the pointer must be refused with
// ErrNotFound. Applying the step would acknowledge it on a server whose
// journal is gone, so no restart could bring it back.
func TestDeleteFencesHeldSession(t *testing.T) {
	r := durableRegistry(t, t.TempDir(), 4)
	s, err := r.Create(&SessionConfig{Name: "x", Domain: 2, Users: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("x"); err != nil {
		t.Fatal(err)
	}
	eps := 0.5
	res, _, err := s.CollectBatch("", []stream.BatchStep{{Values: []int{0}, Eps: &eps}})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("step on a deleted session: results %v, err %v; want ErrNotFound", res, err)
	}
	if got := s.Server().T(); got != 0 {
		t.Fatalf("deleted session advanced to T=%d", got)
	}
}

// TestRetiredSnapshotFencesHeldSession: a snapshot request on a session
// pointer held across its Delete or Migrate is refused as a step would
// be — 404 session_not_found, or 421 wrong_shard with the new location —
// not blamed on the state dir with 409 snapshot_unavailable, although
// retiring detached the session's store.
func TestRetiredSnapshotFencesHeldSession(t *testing.T) {
	r := durableRegistry(t, t.TempDir(), 4)
	peer := httptest.NewServer(NewAPI().Handler())
	defer peer.Close()
	held := make(map[string]*Session)
	for _, name := range []string{"gone", "moved"} {
		s, err := r.Create(&SessionConfig{Name: name, Domain: 2, Users: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		held[name] = s
	}
	if err := r.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Migrate(context.Background(), "moved", peer.URL); err != nil {
		t.Fatal(err)
	}

	_, err := held["gone"].SnapshotNow()
	if status, code := classify(err); !errors.Is(err, ErrNotFound) || status != http.StatusNotFound || code != CodeSessionNotFound {
		t.Fatalf("snapshot of a deleted session: %d %s (%v), want 404 %s", status, code, err, CodeSessionNotFound)
	}
	_, err = held["moved"].SnapshotNow()
	var ws *WrongShardError
	if status, code := classify(err); !errors.As(err, &ws) || ws.Location != peer.URL || status != http.StatusMisdirectedRequest || code != CodeWrongShard {
		t.Fatalf("snapshot of a migrated session: %d %s (%v), want 421 %s to %s", status, code, err, CodeWrongShard, peer.URL)
	}
}

// TestFailedAdmitFencesHeldSession: a writer can look a session up
// between admit's insert and its rollback. Once the rollback detached
// the session's files, that writer must be refused like one that raced
// a Delete.
func TestFailedAdmitFencesHeldSession(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir, 4)
	// A non-empty directory where x.snap goes makes the first
	// snapshot's rename fail.
	if err := os.MkdirAll(filepath.Join(dir, "x.snap", "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := &SessionConfig{Name: "x", Domain: 2, Users: 1, Seed: 1}
	srv, err := cfg.BuildCached(r.models)
	if err != nil {
		t.Fatal(err)
	}
	s := r.newSession(cfg, []byte("{}"), r.now(), srv)
	if err := r.admit(s, false); err == nil {
		t.Fatal("admit succeeded although its first snapshot cannot be written")
	}
	eps := 0.5
	res, _, err := s.CollectBatch("", []stream.BatchStep{{Values: []int{0}, Eps: &eps}})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("step on a rolled-back session: results %v, err %v; want ErrNotFound", res, err)
	}
	if got := s.Server().T(); got != 0 {
		t.Fatalf("rolled-back session advanced to T=%d", got)
	}
}
