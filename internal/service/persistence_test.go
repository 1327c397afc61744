package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
)

// durableRegistry builds a registry persisting into dir.
func durableRegistry(t testing.TB, dir string, every int) *Registry {
	t.Helper()
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.EnablePersistence(store, every); err != nil {
		t.Fatal(err)
	}
	return r
}

// collectStep lands one explicit-budget step through CollectBatch, the
// path the steps endpoint takes.
func collectStep(s *Session, values []int, eps float64) error {
	_, _, err := s.CollectBatch("", []stream.BatchStep{{Values: values, Eps: &eps}})
	return err
}

// collectPlanned lands one plan-budgeted step through CollectBatch and
// returns its published histogram.
func collectPlanned(s *Session, values []int) ([]float64, error) {
	results, _, err := s.CollectBatch("", []stream.BatchStep{{Values: values}})
	if err != nil {
		return nil, err
	}
	return results[0].Published, nil
}

// persistTestConfig is a small multi-cohort session with a correlated
// model, a plan, and a deterministic seed.
func persistTestConfig(name string, seed int64, plan bool) *SessionConfig {
	var chain ModelConfig
	if err := json.Unmarshal([]byte(`{"backward": {"rows": [[0.8,0.2],[0.3,0.7]]}}`), &chain); err != nil {
		panic(err)
	}
	cfg := &SessionConfig{
		Name:   name,
		Domain: 2,
		Cohorts: []CohortConfig{
			{Users: 3, Model: chain},
			{Users: 2, Model: ModelConfig{}},
		},
		Seed: seed,
	}
	if plan {
		cfg.Plan = &PlanConfig{Kind: "upper-bound", Alpha: 2.0}
	}
	return cfg
}

// stepSession pushes n explicit-budget steps into a session.
func stepSession(t *testing.T, s *Session, rng *rand.Rand, n int) {
	t.Helper()
	users := s.Server().Users()
	for i := 0; i < n; i++ {
		values := make([]int, users)
		for u := range values {
			values[u] = rng.Intn(s.Server().Domain())
		}
		if err := collectStep(s, values, 0.1+0.05*float64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
}

// mustMatchSessions compares every leakage-visible answer of two
// sessions exactly.
func mustMatchSessions(t *testing.T, a, b *Session) {
	t.Helper()
	sa, sb := a.Server(), b.Server()
	if sa.T() != sb.T() {
		t.Fatalf("T: %d != %d", sa.T(), sb.T())
	}
	ra, err := sa.Report()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sb.Report()
	if err != nil {
		t.Fatal(err)
	}
	if *ra != *rb {
		t.Fatalf("Report: %+v != %+v", ra, rb)
	}
	for u := 0; u < sa.Users(); u++ {
		ta, err := sa.UserTPLSeries(u)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := sb.UserTPLSeries(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(ta) != len(tb) {
			t.Fatalf("user %d series length %d != %d", u, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("user %d TPL[%d]: %v != %v", u, i, ta[i], tb[i])
			}
		}
	}
	if sa.T() == 0 {
		return
	}
	_, ha, err := sa.PublishedRange(1, sa.T())
	if err != nil {
		t.Fatal(err)
	}
	_, hb, err := sb.PublishedRange(1, sa.T())
	if err != nil {
		t.Fatal(err)
	}
	for k := range ha {
		for i := range ha[k] {
			if ha[k][i] != hb[k][i] {
				t.Fatalf("published[%d][%d]: %v != %v", k+1, i, ha[k][i], hb[k][i])
			}
		}
	}
}

// TestRegistryRestartRoundTrip is the service-level restart: create,
// step, drop the registry, restore into a new one, and require exact
// equality — then keep stepping to prove the restored session is live
// (journal, plan position, noise stream all continue).
func TestRegistryRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, planned := range []bool{false, true} {
		name := "plain"
		if planned {
			name = "planned"
		}
		t.Run(name, func(t *testing.T) {
			sub := filepath.Join(dir, name)
			r1 := durableRegistry(t, sub, 4)
			cfg := persistTestConfig("sess", 99, planned)
			s1, err := r1.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// 10 steps with snapshot-every 4: snapshots at 4 and 8,
			// journal holds 9 and 10.
			stepSession(t, s1, rand.New(rand.NewSource(1)), 10)
			if info := s1.persistInfo(); info.LastSnapshotT != 8 || info.JournalRecords != 2 {
				t.Fatalf("coalescing off: %+v", info)
			}

			r2 := durableRegistry(t, sub, 4)
			restored, failed := r2.RestoreAll()
			if len(failed) != 0 {
				t.Fatalf("restore failures: %v", failed)
			}
			if len(restored) != 1 || restored[0] != "sess" {
				t.Fatalf("restored %v", restored)
			}
			s2, err := r2.Get("sess")
			if err != nil {
				t.Fatal(err)
			}
			mustMatchSessions(t, s1, s2)
			if got, want := s2.Created(), s1.Created(); !got.Equal(want) {
				t.Fatalf("created %v != %v", got, want)
			}
			if r2.Users() != s1.Server().Users() {
				t.Fatalf("restored registry accounts %d users", r2.Users())
			}

			// The explicit seed makes even the noise stream continue
			// exactly: both sessions publish identical histograms.
			stepSession(t, s1, rand.New(rand.NewSource(2)), 3)
			stepSession(t, s2, rand.New(rand.NewSource(2)), 3)
			mustMatchSessions(t, s1, s2)
		})
	}
}

// TestRestoreEntropySeededSession: the privacy-preserving default —
// sessions seeded from OS entropy restore with a reseeded noise stream
// but a bit-identical leakage series.
func TestRestoreEntropySeededSession(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir, 100)
	cfg := persistTestConfig("sess", 0, false) // Seed 0: entropy
	s1, err := r1.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepSession(t, s1, rand.New(rand.NewSource(1)), 6)
	// The stored snapshot must not contain a usable seed: grep the raw
	// state dir bytes for the provenance marker instead of trusting the
	// API.
	if _, err := s1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	r2 := durableRegistry(t, dir, 100)
	if _, failed := r2.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restore failures: %v", failed)
	}
	s2, err := r2.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	mustMatchSessions(t, s1, s2)
	if prov := s2.Server().NoiseState().Provenance; prov != "reseeded" {
		t.Fatalf("restored provenance %q, want reseeded", prov)
	}
	if info := s2.persistInfo(); info.NoiseProvenance != "reseeded" {
		t.Fatalf("summary provenance %+v", info)
	}
}

// TestRestoreSkipsCorruptSession: one corrupt tenant must not block
// the rest of the fleet.
func TestRestoreSkipsCorruptSession(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir, 100)
	for _, name := range []string{"good", "bad"} {
		cfg := persistTestConfig(name, 7, false)
		cfg.Name = name
		s, err := r1.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stepSession(t, s, rand.New(rand.NewSource(3)), 2)
	}
	// Corrupt bad's snapshot body (past the envelope header).
	path := filepath.Join(dir, "bad.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := durableRegistry(t, dir, 100)
	restored, failed := r2.RestoreAll()
	if len(restored) != 1 || restored[0] != "good" {
		t.Fatalf("restored %v", restored)
	}
	if err := failed["bad"]; !errors.Is(err, persist.ErrChecksum) {
		t.Fatalf("bad session error: %v", err)
	}
	if _, err := r2.Get("good"); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesRetiredSchemaVersions: restore reads exactly
// snapshot v2 and journal v2. A state dir written in an older format is
// refused loudly — reported in failed with its files kept for
// inspection — and never half-restored; other sessions are unaffected.
func TestRestoreRefusesRetiredSchemaVersions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, store *persist.Store)
	}{
		{"snapshot-v1", func(t *testing.T, store *persist.Store) {
			_, body, err := store.LoadSnapshot("old")
			if err != nil {
				t.Fatal(err)
			}
			if err := store.SaveSnapshot("old", 1, body); err != nil {
				t.Fatal(err)
			}
		}},
		{"journal-v1", func(t *testing.T, store *persist.Store) {
			j, err := store.OpenJournal("old")
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			body, err := gobEncode(stream.StepRecord{T: 3, Eps: 0.1, Published: []float64{1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(1, body); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r1 := durableRegistry(t, dir, 100)
			for _, name := range []string{"old", "current"} {
				s, err := r1.Create(persistTestConfig(name, 7, false))
				if err != nil {
					t.Fatal(err)
				}
				stepSession(t, s, rand.New(rand.NewSource(3)), 2)
			}
			tc.corrupt(t, r1.Store())

			r2 := durableRegistry(t, dir, 100)
			restored, failed := r2.RestoreAll()
			if len(restored) != 1 || restored[0] != "current" {
				t.Fatalf("restored %v", restored)
			}
			if err := failed["old"]; err == nil || !strings.Contains(err.Error(), "not supported") {
				t.Fatalf("retired-format session error: %v", err)
			}
			if _, err := r2.Get("old"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("refused session is live: %v", err)
			}
			if r2.Users() != 5 {
				t.Fatalf("Users() = %d, want only the restored session's 5", r2.Users())
			}
			for _, f := range []string{"old.snap", "old.journal"} {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Fatalf("refused session's %s not kept: %v", f, err)
				}
			}
		})
	}
}

// TestDeleteRemovesState: deleting a session deletes its files, and a
// later restore does not resurrect it.
func TestDeleteRemovesState(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir, 100)
	s, err := r1.Create(persistTestConfig("sess", 7, false))
	if err != nil {
		t.Fatal(err)
	}
	stepSession(t, s, rand.New(rand.NewSource(3)), 2)
	if err := r1.Delete("sess"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("state dir not empty after delete: %v", entries)
	}
	r2 := durableRegistry(t, dir, 100)
	if restored, _ := r2.RestoreAll(); len(restored) != 0 {
		t.Fatalf("deleted session resurrected: %v", restored)
	}
}

// TestStateDirFailureIsInternal pins the blame for disk failures: an
// error from the state dir is the server's (500 internal), not the
// client's (400 invalid_request) — on create and on a delete whose file
// removal fails after the session is already gone.
func TestStateDirFailureIsInternal(t *testing.T) {
	dir := t.TempDir()
	api := NewAPI()
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.Registry().EnablePersistence(store, 50); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()
	do := func(method, path, body string) (int, Problem) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p Problem
		_ = json.NewDecoder(resp.Body).Decode(&p)
		return resp.StatusCode, p
	}
	wantInternal := func(what string, status int, p Problem) {
		t.Helper()
		if status != http.StatusInternalServerError || p.Code != CodeInternal {
			t.Errorf("%s: %d %q (%s), want 500 %q", what, status, p.Code, p.Detail, CodeInternal)
		}
	}

	// The journal path is taken by a directory: the session cannot open
	// its journal.
	if err := os.Mkdir(filepath.Join(dir, "x.journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	status, p := do(http.MethodPost, "/v2/sessions", `{"name":"x","domain":2,"users":1}`)
	wantInternal("create over a broken state dir", status, p)

	// A non-empty directory where the snapshot temp file goes cannot be
	// removed: the delete retires the session but reports the failure.
	if status, _ := do(http.MethodPost, "/v2/sessions", `{"name":"y","domain":2,"users":1}`); status != http.StatusCreated {
		t.Fatalf("create y: %d", status)
	}
	if err := os.MkdirAll(filepath.Join(dir, "y.snap.tmp", "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	status, p = do(http.MethodDelete, "/v2/sessions/y", "")
	wantInternal("delete whose file removal fails", status, p)
	if status, _ := do(http.MethodGet, "/v2/sessions/y", ""); status != http.StatusNotFound {
		t.Errorf("after the failed removal: GET %d, want 404", status)
	}
}

// TestSnapshotEndpointAndHealth drives the HTTP layer: the snapshot
// endpoint forces a snapshot and reports metadata; healthz reports
// uptime, session count and persistence health; session summaries
// carry the persistence block.
func TestSnapshotEndpointAndHealth(t *testing.T) {
	dir := t.TempDir()
	api := NewAPI()
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.Registry().EnablePersistence(store, 50); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("/v2/sessions", `{"name":"web","domain":2,"users":3,"seed":5}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post("/v2/sessions/web/steps", `[{"values":[0,1,1],"eps":0.2}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Snapshot-on-demand.
	resp = post("/v2/sessions/web/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	var snap struct {
		Name        string      `json:"name"`
		T           int         `json:"t"`
		Persistence PersistInfo `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Name != "web" || snap.T != 1 || snap.Persistence.LastSnapshotT != 1 || snap.Persistence.JournalRecords != 0 {
		t.Fatalf("snapshot response: %+v", snap)
	}
	if snap.Persistence.NoiseProvenance != "seeded" {
		t.Fatalf("provenance %q", snap.Persistence.NoiseProvenance)
	}

	// Session summary carries persistence metadata.
	resp, err = http.Get(ts.URL + "/v2/sessions/web")
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.Persistence == nil || sum.Persistence.LastSnapshotT != 1 {
		t.Fatalf("summary persistence: %+v", sum.Persistence)
	}

	// Health reports durability.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status        string            `json:"status"`
		Sessions      int               `json:"sessions"`
		Users         int               `json:"users"`
		UptimeSeconds float64           `json:"uptime_seconds"`
		Persistence   PersistenceHealth `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Sessions != 1 || health.Users != 3 {
		t.Fatalf("health: %+v", health)
	}
	if health.UptimeSeconds < 0 {
		t.Fatalf("uptime %v", health.UptimeSeconds)
	}
	if health.Persistence.Mode != "durable" || health.Persistence.StateDir != dir || health.Persistence.SnapshotEvery != 50 {
		t.Fatalf("persistence health: %+v", health.Persistence)
	}
	if health.Persistence.LastSnapshotAgeSeconds == nil || *health.Persistence.LastSnapshotAgeSeconds < 0 {
		t.Fatalf("snapshot age: %+v", health.Persistence.LastSnapshotAgeSeconds)
	}
}

// TestSnapshotEndpointEphemeral: 409 without a store, and health says
// ephemeral.
func TestSnapshotEndpointEphemeral(t *testing.T) {
	api := NewAPI()
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v2/sessions", "application/json", strings.NewReader(`{"name":"web","domain":2,"users":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v2/sessions/web/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ephemeral snapshot: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Persistence PersistenceHealth `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Persistence.Mode != "ephemeral" {
		t.Fatalf("mode %q", health.Persistence.Mode)
	}
}

// TestRegistryCloseFinalSnapshot: graceful shutdown snapshots every
// session, so a clean restart replays nothing from the journal.
func TestRegistryCloseFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir, 100) // coalescing never fires on its own
	s, err := r1.Create(persistTestConfig("sess", 7, false))
	if err != nil {
		t.Fatal(err)
	}
	stepSession(t, s, rand.New(rand.NewSource(3)), 5)
	if info := s.persistInfo(); info.JournalRecords != 5 {
		t.Fatalf("journal before close: %+v", info)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := durableRegistry(t, dir, 100)
	if _, failed := r2.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restore failures: %v", failed)
	}
	s2, err := r2.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	if info := s2.persistInfo(); info.LastSnapshotT != 5 || info.JournalRecords != 0 {
		t.Fatalf("after clean restart: %+v", info)
	}
	mustMatchSessions(t, s, s2)
}

// TestEnablePersistenceAfterSessions is rejected: durability is boot
// wiring, not a runtime toggle.
func TestEnablePersistenceAfterSessions(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Create(persistTestConfig("sess", 7, false)); err != nil {
		t.Fatal(err)
	}
	store, err := persist.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnablePersistence(store, 10); err == nil {
		t.Fatal("EnablePersistence accepted with live sessions")
	}
}

// TestPersistenceHealthStaleness: the health age tracks the stalest
// session.
func TestPersistenceHealthStaleness(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir, 100)
	base := time.Unix(1_700_000_000, 0)
	clock := base
	r.now = func() time.Time { return clock }
	if _, err := r.Create(persistTestConfig("old", 7, false)); err != nil {
		t.Fatal(err)
	}
	clock = base.Add(90 * time.Second)
	cfg := persistTestConfig("new", 7, false)
	cfg.Name = "new"
	if _, err := r.Create(cfg); err != nil {
		t.Fatal(err)
	}
	clock = base.Add(100 * time.Second)
	h := r.PersistenceHealth()
	if h.LastSnapshotAgeSeconds == nil || *h.LastSnapshotAgeSeconds != 100 {
		t.Fatalf("stalest age: %+v", h.LastSnapshotAgeSeconds)
	}
}

// TestDoubleCrashWithTornTail is the regression test for the
// append-after-torn-tail hole: crash #1 tears the journal's final
// record; the restored process must cut the journal back to its last
// verified record before appending, so steps served after recovery
// survive crash #2 instead of being stranded behind the torn record.
func TestDoubleCrashWithTornTail(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir, 100) // coalescing never fires on its own
	s1, err := r1.Create(persistTestConfig("sess", 11, false))
	if err != nil {
		t.Fatal(err)
	}
	stepSession(t, s1, rand.New(rand.NewSource(4)), 5)

	// Crash #1: no Close, and the last journal record is torn mid-write.
	jpath := filepath.Join(dir, "sess.journal")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := durableRegistry(t, dir, 100)
	if _, failed := r2.RestoreAll(); len(failed) != 0 {
		t.Fatalf("restore failures: %v", failed)
	}
	s2, err := r2.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Server().T() != 4 {
		t.Fatalf("after torn-tail recovery T=%d, want 4 (intact records)", s2.Server().T())
	}
	if info := s2.persistInfo(); info.LastSnapshotT != 0 || info.JournalRecords != 4 || info.Error != "" {
		t.Fatalf("recovery must keep the base and the four intact records: %+v", info)
	}
	if after, err := os.ReadFile(jpath); err != nil || len(recordEnds(t, after)) != 4 || !strings.HasPrefix(string(raw), string(after)) {
		t.Fatalf("recovery must truncate the journal to its four intact records (%v)", err)
	}
	stepSession(t, s2, rand.New(rand.NewSource(5)), 3)

	// Crash #2: again no Close. Every step acknowledged after recovery
	// must survive.
	r3 := durableRegistry(t, dir, 100)
	if _, failed := r3.RestoreAll(); len(failed) != 0 {
		t.Fatalf("second restore failures: %v", failed)
	}
	s3, err := r3.Get("sess")
	if err != nil {
		t.Fatal(err)
	}
	if s3.Server().T() != 7 {
		t.Fatalf("after second crash T=%d, want 7 — post-recovery steps were lost", s3.Server().T())
	}
	mustMatchSessions(t, s2, s3)
}

// TestRestoreConcurrentMatchesSerial restores the same eight sessions
// with one loader and with eight at a time. One session has a damaged
// middle journal record, one lies behind a migration tombstone, and the
// user ceiling fits every healthy session but the last in List() order.
// Both restores must restore and fail the same sessions with the same
// errors, in the same order; every restored session must match an
// uninterrupted in-memory control, and a keyed retry of its last batch
// must replay, leaving the batch applied exactly once.
func TestRestoreConcurrentMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	r := durableRegistry(t, dir, 1<<20)
	names := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	ctls := make(map[string]*Session)
	type batch struct {
		key   string
		steps []stream.BatchStep
	}
	last := make(map[string]batch)
	rng := rand.New(rand.NewSource(31))
	for _, name := range names {
		s, err := r.Create(deltaTestConfig(name))
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := NewRegistry().Create(deltaTestConfig(name))
		if err != nil {
			t.Fatal(err)
		}
		ctls[name] = ctl
		collect := func(key string, steps []stream.BatchStep) {
			for _, sess := range []*Session{s, ctl} {
				if _, _, err := sess.CollectBatch(key, steps); err != nil {
					t.Fatal(err)
				}
			}
			last[name] = batch{key, steps}
		}
		// A base of a few hundred steps, four compactions and a keyed
		// journal tail.
		for i := 0; i < 40; i++ {
			collect("", randomBatch(rng, 5, 16))
		}
		for i := 0; i < 5; i++ {
			if i > 0 {
				for j := 0; j < 3; j++ {
					collect(fmt.Sprintf("%s-%d-%d", name, i, j), randomBatch(rng, 5, 4))
				}
			}
			if _, err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		collect(name+"-tail0", randomBatch(rng, 5, 4))
		collect(name+"-tail1", randomBatch(rng, 5, 4))
	}
	log := readStateFile(t, dir, "r2.journal")
	if ends := recordEnds(t, log); len(ends) != 2 {
		t.Fatalf("r2 has %d journal records, want 2", len(ends))
	}
	log[60] ^= 0xFF // a body byte of the first record
	writeStateFile(t, dir, "r2.journal", log)
	const owner = "http://shard-b:8344"
	if err := r.Store().SaveTombstone("r4", owner); err != nil {
		t.Fatal(err)
	}

	restoreWith := func(procs int) (*Registry, []string, map[string]error) {
		img := copyStateDir(t, dir)
		r := durableRegistry(t, img, 1<<20)
		r.capacity = 25 // five 5-user sessions: r0, r1, r3, r5, r6
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		restored, failed := r.RestoreAll()
		return r, restored, failed
	}
	_, serial, serialFailed := restoreWith(1)
	r2, restored, failed := restoreWith(len(names))
	if want := []string{"r0", "r1", "r3", "r5", "r6"}; !reflect.DeepEqual(serial, want) || !reflect.DeepEqual(restored, want) {
		t.Fatalf("restored %v one at a time and %v concurrently, want %v", serial, restored, want)
	}
	if len(failed) != 2 || len(serialFailed) != 2 {
		t.Fatalf("failed %v concurrently and %v one at a time, want r2 and r7", failed, serialFailed)
	}
	for name, want := range map[string]string{"r2": "journal is damaged", "r7": "capacity"} {
		err, serr := failed[name], serialFailed[name]
		if err == nil || serr == nil || err.Error() != serr.Error() || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: failed with %v concurrently and %v one at a time, want %q", name, err, serr, want)
		}
	}
	if !errors.Is(failed["r7"], ErrCapacity) {
		t.Fatalf("r7: %v, want ErrCapacity", failed["r7"])
	}
	var ws *WrongShardError
	if _, err := r2.Get("r4"); !errors.As(err, &ws) || ws.Location != owner {
		t.Fatalf("Get(r4) = %v, want a redirect to %s", err, owner)
	}
	if n, users := r2.Len(), r2.Users(); n != 5 || users != 25 {
		t.Fatalf("registry counts %d sessions / %d users, want 5 / 25", n, users)
	}
	for _, name := range restored {
		s, err := r2.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ctl := ctls[name]
		mustMatchSessions(t, ctl, s)
		mustMatchWEvent(t, ctl, s)
		if !reflect.DeepEqual(s.idem.entries(), ctl.idem.entries()) {
			t.Fatalf("%s: restored idempotency memory differs", name)
		}
		b, T := last[name], s.Server().T()
		for i := 0; i < 2; i++ {
			if _, replayed, err := s.CollectBatch(b.key, b.steps); err != nil || !replayed {
				t.Fatalf("%s: retry %d of %s: replayed=%v err=%v", name, i, b.key, replayed, err)
			}
		}
		if s.Server().T() != T {
			t.Fatalf("%s: retries moved T from %d to %d", name, T, s.Server().T())
		}
	}
}
