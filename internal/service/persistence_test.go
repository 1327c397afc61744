package service

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
)

// durableRegistry builds a registry persisting into dir.
func durableRegistry(t *testing.T, dir string, every int) *Registry {
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
		if _, _, _, err := s.Collect(values, 0.1+0.05*float64(i%3)); err != nil {
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
	for tt := 1; tt <= sa.T(); tt++ {
		pa, err := sa.Published(tt)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.Published(tt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("published[%d][%d]: %v != %v", tt, i, pa[i], pb[i])
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
// record; the restored process must bake the replayed tail into a
// fresh snapshot before appending, so steps served after recovery
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
	if info := s2.persistInfo(); info.LastSnapshotT != 4 || info.JournalRecords != 0 || info.Error != "" {
		t.Fatalf("recovery must resnapshot and reset the journal: %+v", info)
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
