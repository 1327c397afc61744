package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/persist"
)

// migrateHarness is two in-process shards (A durable, B ephemeral)
// plus raw HTTP helpers.
type migrateHarness struct {
	t        *testing.T
	apiA     *API
	apiB     *API
	srvA     *httptest.Server
	srvB     *httptest.Server
	stateDir string
}

func newMigrateHarness(t *testing.T) *migrateHarness {
	t.Helper()
	h := &migrateHarness{t: t, stateDir: t.TempDir()}
	h.apiA = NewAPI()
	store, err := persist.NewStore(h.stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.apiA.Registry().EnablePersistence(store, 50); err != nil {
		t.Fatal(err)
	}
	h.apiB = NewAPI()
	h.srvA = httptest.NewServer(h.apiA.Handler())
	t.Cleanup(h.srvA.Close)
	h.srvB = httptest.NewServer(h.apiB.Handler())
	t.Cleanup(h.srvB.Close)
	return h
}

func (h *migrateHarness) post(base, path, body string, header map[string]string) (int, []byte) {
	h.t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func (h *migrateHarness) get(base, path string, out any) int {
	h.t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, out); err != nil {
			h.t.Fatalf("decoding %s: %v: %s", path, err, b)
		}
	}
	return resp.StatusCode
}

func decodeWrongShard(t *testing.T, body []byte) string {
	t.Helper()
	var p struct {
		Code     string `json:"code"`
		Location string `json:"location"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("problem body %s: %v", body, err)
	}
	if p.Code != CodeWrongShard {
		t.Fatalf("code %q, want %s (%s)", p.Code, CodeWrongShard, body)
	}
	return p.Location
}

// TestMigrateMovesSession: the session keeps its exact state on the
// target, the source answers 421 wrong_shard with the new location,
// and a retried batch lands at the new home untouched by the refusal.
func TestMigrateMovesSession(t *testing.T) {
	h := newMigrateHarness(t)
	code, body := h.post(h.srvA.URL, "/v2/sessions", `{"name":"web","domain":2,"users":2,"seed":7}`, nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	for i := 0; i < 3; i++ {
		code, body = h.post(h.srvA.URL, "/v2/sessions/web/steps", `[{"values":[0,1],"eps":0.2}]`, nil)
		if code != http.StatusOK {
			t.Fatalf("steps: %d %s", code, body)
		}
	}
	var before reportResponse
	if code := h.get(h.srvA.URL, "/v2/sessions/web/report", &before); code != http.StatusOK {
		t.Fatalf("report before: %d", code)
	}

	code, body = h.post(h.srvA.URL, "/v2/sessions/web/migrate", `{"target":"`+h.srvB.URL+`"}`, nil)
	if code != http.StatusOK {
		t.Fatalf("migrate: %d %s", code, body)
	}
	var mig struct {
		Name     string `json:"name"`
		Location string `json:"location"`
	}
	if err := json.Unmarshal(body, &mig); err != nil || mig.Name != "web" || mig.Location != h.srvB.URL {
		t.Fatalf("migrate response %s", body)
	}

	// Target serves the session with identical accounting state.
	var after reportResponse
	if code := h.get(h.srvB.URL, "/v2/sessions/web/report", &after); code != http.StatusOK {
		t.Fatalf("report on target: %d", code)
	}
	if before != after {
		t.Fatalf("report changed across migration:\n  before %+v\n  after  %+v", before, after)
	}
	var sum Summary
	if h.get(h.srvB.URL, "/v2/sessions/web", &sum); sum.T != 3 || sum.Users != 2 {
		t.Fatalf("summary on target %+v", sum)
	}

	// Source refuses with the new location — reads and writes alike.
	code, body = h.post(h.srvA.URL, "/v2/sessions/web/steps", `[{"values":[1,0],"eps":0.1}]`, map[string]string{"Idempotency-Key": "k9"})
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("post to old owner: %d %s", code, body)
	}
	if loc := decodeWrongShard(t, body); loc != h.srvB.URL {
		t.Fatalf("location %q, want %s", loc, h.srvB.URL)
	}
	resp, err := http.Get(h.srvA.URL + "/v2/sessions/web")
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("get from old owner: %d %s", resp.StatusCode, gb)
	}
	decodeWrongShard(t, gb)

	// The refused batch retries cleanly at the new home: nothing was
	// double-applied.
	code, body = h.post(h.srvB.URL, "/v2/sessions/web/steps", `[{"values":[1,0],"eps":0.1}]`, map[string]string{"Idempotency-Key": "k9"})
	if code != http.StatusOK {
		t.Fatalf("retry at new owner: %d %s", code, body)
	}
	if h.get(h.srvB.URL, "/v2/sessions/web", &sum); sum.T != 4 {
		t.Fatalf("T after retry %d, want 4", sum.T)
	}
}

// TestMigrateTombstoneSurvivesRestart: the wrong_shard redirect
// outlives a crash of the source shard.
func TestMigrateTombstoneSurvivesRestart(t *testing.T) {
	h := newMigrateHarness(t)
	if code, body := h.post(h.srvA.URL, "/v2/sessions", `{"name":"web","domain":2,"users":1}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, body := h.post(h.srvA.URL, "/v2/sessions/web/migrate", `{"target":"`+h.srvB.URL+`"}`, nil); code != http.StatusOK {
		t.Fatalf("migrate: %d %s", code, body)
	}

	// "Crash" the source and restore a fresh registry from its state dir.
	r2 := durableRegistry(t, h.stateDir, 50)
	if restored, failed := r2.RestoreAll(); len(restored) != 0 || len(failed) != 0 {
		t.Fatalf("restore after migration: restored %v failed %v", restored, failed)
	}
	_, err := r2.Get("web")
	var ws *WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("restored source answered %v, want WrongShardError", err)
	}
	if ws.Location != h.srvB.URL {
		t.Fatalf("tombstone location %q, want %s", ws.Location, h.srvB.URL)
	}

	// Re-creating the name reclaims it and clears the tombstone.
	if _, err := r2.Create(&SessionConfig{Name: "web", Domain: 2, Users: 1}); err != nil {
		t.Fatalf("recreate over tombstone: %v", err)
	}
	if _, err := r2.Get("web"); err != nil {
		t.Fatalf("get after recreate: %v", err)
	}
}

// TestRestoreTombstoneWinsOverSnapshot is the split-brain regression: a
// crash after Migrate wrote its tombstone but before it deleted the
// local files leaves both on disk. The target owns the session, so the
// restarted source must redirect, not serve a second copy.
func TestRestoreTombstoneWinsOverSnapshot(t *testing.T) {
	dir := t.TempDir()
	r1 := durableRegistry(t, dir, 100)
	s, err := r1.Create(persistTestConfig("web", 7, false))
	if err != nil {
		t.Fatal(err)
	}
	stepSession(t, s, rand.New(rand.NewSource(3)), 2)
	if _, err := r1.Create(persistTestConfig("stay", 7, false)); err != nil {
		t.Fatal(err)
	}
	const owner = "http://shard-b:8344"
	if err := r1.Store().SaveTombstone("web", owner); err != nil {
		t.Fatal(err)
	}

	r2 := durableRegistry(t, dir, 100)
	restored, failed := r2.RestoreAll()
	if len(restored) != 1 || restored[0] != "stay" || len(failed) != 0 {
		t.Fatalf("restored %v failed %v, want only stay", restored, failed)
	}
	_, err = r2.Get("web")
	var ws *WrongShardError
	if !errors.As(err, &ws) || ws.Location != owner {
		t.Fatalf("Get(web) = %v, want WrongShardError to %s", err, owner)
	}
	if n, users := r2.Len(), r2.Users(); n != 1 || users != 5 {
		t.Fatalf("registry counts %d sessions / %d users, want 1 / 5", n, users)
	}
	if _, err := os.Stat(filepath.Join(dir, "web.snap")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("retired snapshot left on disk: %v", err)
	}
	// The redirect is durable: a second restart still answers it.
	r3 := durableRegistry(t, dir, 100)
	r3.RestoreAll()
	if _, err := r3.Get("web"); !errors.As(err, &ws) || ws.Location != owner {
		t.Fatalf("second restart: Get(web) = %v", err)
	}
}

// TestMigrateReportsTombstoneWriteError: once the target acks, a failed
// tombstone write is returned to the caller, and the local files are
// still dropped so a restart cannot bring back a second owner.
func TestMigrateReportsTombstoneWriteError(t *testing.T) {
	h := newMigrateHarness(t)
	if code, body := h.post(h.srvA.URL, "/v2/sessions", `{"name":"web","domain":2,"users":1}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	// A directory where the tombstone's temp file must go makes the
	// write fail.
	if err := os.Mkdir(filepath.Join(h.stateDir, "web.tomb.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := h.apiA.Registry().Migrate(context.Background(), "web", h.srvB.URL)
	if err == nil || !strings.Contains(err.Error(), "tombstone") {
		t.Fatalf("Migrate error = %v, want the tombstone write failure", err)
	}
	if code := h.get(h.srvB.URL, "/v2/sessions/web", nil); code != http.StatusOK {
		t.Fatalf("target does not own the session: %d", code)
	}
	if _, err := os.Stat(filepath.Join(h.stateDir, "web.snap")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("source kept its snapshot: %v", err)
	}
}

// TestMigrateFailureLeavesSourceAuthoritative: an unreachable target
// means 502 migrate_failed and the session keeps serving at the source.
func TestMigrateFailureLeavesSourceAuthoritative(t *testing.T) {
	h := newMigrateHarness(t)
	if code, body := h.post(h.srvA.URL, "/v2/sessions", `{"name":"web","domain":2,"users":1}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body := h.post(h.srvA.URL, "/v2/sessions/web/migrate", `{"target":"http://127.0.0.1:1"}`, nil)
	if code != http.StatusBadGateway {
		t.Fatalf("migrate to dead target: %d %s", code, body)
	}
	var p struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &p) != nil || p.Code != CodeMigrateFailed {
		t.Fatalf("problem %s", body)
	}
	if code, body := h.post(h.srvA.URL, "/v2/sessions/web/steps", `[{"values":[1],"eps":0.1}]`, nil); code != http.StatusOK {
		t.Fatalf("post after failed migrate: %d %s", code, body)
	}
}

// TestImportConflictRefused: a migration push for a name the target
// already owns is refused without touching the incumbent.
func TestImportConflictRefused(t *testing.T) {
	h := newMigrateHarness(t)
	for _, base := range []string{h.srvA.URL, h.srvB.URL} {
		if code, body := h.post(base, "/v2/sessions", `{"name":"web","domain":2,"users":1}`, nil); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, body)
		}
	}
	code, body := h.post(h.srvA.URL, "/v2/sessions/web/migrate", `{"target":"`+h.srvB.URL+`"}`, nil)
	if code != http.StatusBadGateway {
		t.Fatalf("conflicting migrate: %d %s", code, body)
	}
	// Source kept the session (the push was refused before handoff).
	if code := h.get(h.srvA.URL, "/v2/sessions/web", nil); code != http.StatusOK {
		t.Fatalf("source lost the session: %d", code)
	}
	// Target incumbent untouched.
	var sum Summary
	if h.get(h.srvB.URL, "/v2/sessions/web", &sum); sum.T != 0 {
		t.Fatalf("incumbent mutated: %+v", sum)
	}
}

// TestMigrateValidation: bad targets are rejected up front.
func TestMigrateValidation(t *testing.T) {
	h := newMigrateHarness(t)
	if code, body := h.post(h.srvA.URL, "/v2/sessions", `{"name":"web","domain":2,"users":1}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	for _, target := range []string{"", "ftp://x", "not a url"} {
		code, _ := h.post(h.srvA.URL, "/v2/sessions/web/migrate", `{"target":"`+target+`"}`, nil)
		if code != http.StatusBadRequest {
			t.Errorf("target %q: status %d, want 400", target, code)
		}
	}
	if code, _ := h.post(h.srvA.URL, "/v2/sessions/ghost/migrate", `{"target":"http://x:1"}`, nil); code != http.StatusNotFound {
		t.Errorf("missing session migrate: %d, want 404", code)
	}
}
