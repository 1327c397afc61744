package service

import (
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stream"
)

// TestDeletePurgesPersistedState is the resurrection regression test:
// DELETE /v2/sessions/{name} on a durable registry must remove the
// session's snapshot, journal AND delta log from the state dir, so a process
// restart on the same directory does not bring the deleted tenant (and
// its privacy accounting) back from the dead.
func TestDeletePurgesPersistedState(t *testing.T) {
	dir := t.TempDir()
	t.Run("v2", func(t *testing.T) {
		reg := durableRegistry(t, dir, 3)
		h := (&API{reg: reg, started: reg.now()}).Handler()
		name := "ghost-v2"
		rec := doJSON(t, h, "POST", "/v2/sessions",
			`{"name":"`+name+`","domain":2,"users":3,"seed":7}`, nil)
		if rec.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
		}
		// Enough steps to have both a coalesced snapshot and a journal
		// tail on disk.
		for i := 0; i < 5; i++ {
			rec = doJSON(t, h, "POST", "/v2/sessions/"+name+"/steps", `[{"values":[0,1,0],"eps":0.1}]`, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("step: %d %s", rec.Code, rec.Body.String())
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), name+".") {
				found++
			}
		}
		if found == 0 {
			t.Fatal("no persisted files before delete — test is vacuous")
		}
		if info, err := os.Stat(filepath.Join(dir, name+".journal")); err != nil || info.Size() == 0 {
			t.Fatalf("no journal record before delete (%v) — the journal is not covered", err)
		}
		// A delta log an earlier version left goes too.
		if err := os.WriteFile(filepath.Join(dir, name+".delta"), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}

		if rec = doJSON(t, h, "DELETE", "/v2/sessions/"+name, "", nil); rec.Code != http.StatusNoContent {
			t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
		}
		entries, err = os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), name+".") {
				t.Fatalf("deleted session left %s in the state dir", e.Name())
			}
		}

		// The restart: a fresh registry on the same dir must not
		// resurrect the deleted session.
		reg2 := durableRegistry(t, dir, 3)
		restored, failed := reg2.RestoreAll()
		for _, n := range restored {
			if n == name {
				t.Fatalf("deleted session %q resurrected on restart", name)
			}
		}
		if err := failed[name]; err != nil {
			t.Fatalf("deleted session %q left restorable-but-corrupt state: %v", name, err)
		}
		if _, err := reg2.Get(name); err == nil {
			t.Fatalf("deleted session %q is live after restart", name)
		}
	})
}

// TestDeleteReturnsHistoryMemory: deleting a session frees its history
// at once — the heap does not keep holding it until allocation pressure
// happens to trigger a collection.
func TestDeleteReturnsHistoryMemory(t *testing.T) {
	r := NewRegistry()
	s, err := r.Create(&SessionConfig{Name: "big", Domain: 256, Users: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]stream.BatchStep, 256)
	for i := range steps {
		eps := 0.1
		steps[i] = stream.BatchStep{Counts: make([]int, 256), Eps: &eps}
		steps[i].Counts[i] = 1
	}
	for i := 0; i < 40; i++ { // 10240 steps of 2 KiB published rows: ~20 MiB
		if _, _, err := s.CollectBatch("", steps); err != nil {
			t.Fatal(err)
		}
	}
	s = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := r.Delete("big"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if freed := int64(before.HeapAlloc) - int64(after.HeapAlloc); freed < 10<<20 {
		t.Fatalf("deleting a ~20 MiB session freed %d bytes of heap", freed)
	}
}
