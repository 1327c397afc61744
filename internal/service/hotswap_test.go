package service

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/markov"
	"repro/internal/stream"
)

// TestBundleHotSwapUnderLoad is the management-plane race test:
// bundle activations flip the named model table while writers ingest
// against ref-model sessions over the real API and SSE watchers hold
// streams open. The contract under test: activation never rebinds a
// live session (each keeps the revision pinned at creation), ingest
// never fails, and a session created under a later revision reports
// that revision. Run under -race this also proves the swap path is
// data-race-free against the ingest hot path.
func TestBundleHotSwapUnderLoad(t *testing.T) {
	api := NewAPI()
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	// Runs first: a failing check must not leave Close waiting on the
	// open watch streams.
	defer srv.CloseClientConnections()
	cache := api.Registry().ModelCache()

	mk := func(rows [][]float64) *markov.Chain {
		c, err := markov.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rev1 := map[string]stream.AdversaryModel{
		"road": {Backward: mk([][]float64{{0.8, 0.2}, {0.3, 0.7}}), Forward: mk([][]float64{{0.6, 0.4}, {0.1, 0.9}})},
	}
	rev2 := map[string]stream.AdversaryModel{
		"road": {Backward: mk([][]float64{{0.5, 0.5}, {0.5, 0.5}})},
	}
	cache.ActivateNamed("rev1", rev1)

	const writers = 4
	const batches = 25
	watchers := make([]chan struct{}, writers)
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("swap-%d", w)
		body := fmt.Sprintf(`{"name":%q,"domain":2,"cohorts":[{"users":2,"model":{"ref":"road"}},{"users":1,"model":{}}]}`, name)
		rec := doJSON(t, api.Handler(), "POST", "/v2/sessions", body, nil)
		if rec.Code != 201 {
			t.Fatalf("create %s: %d %s", name, rec.Code, rec.Body)
		}
		watchers[w] = openWatch(t, srv.URL, name)
	}

	// One activator flips revisions while the writers ingest. The
	// writers hold their last batch until it has activated twice, so a
	// late wake-up of its sleep cannot let them finish first.
	stopSwap := make(chan struct{})
	activatorDone := make(chan struct{})
	twoSwaps := make(chan struct{})
	var swaps atomic.Int64
	go func() {
		defer close(activatorDone)
		for i := 0; ; i++ {
			select {
			case <-stopSwap:
				return
			default:
			}
			if i%2 == 0 {
				cache.ActivateNamed("rev2", rev2)
			} else {
				cache.ActivateNamed("rev1", rev1)
			}
			if swaps.Add(1) == 2 {
				close(twoSwaps)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	errs := make(chan error, writers)
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			h := api.Handler()
			name := fmt.Sprintf("swap-%d", w)
			for b := 0; b < batches; b++ {
				if b == batches-1 {
					select {
					case <-twoSwaps:
					case <-time.After(10 * time.Second):
						errs <- fmt.Errorf("writer %d: fewer than two activations in 10s", w)
						return
					}
				}
				body := fmt.Sprintf(`[{"values":[%d,%d,%d],"eps":0.1},{"values":[%d,%d,%d],"eps":0.1}]`,
					b%2, (b+w)%2, (b+1)%2, (b+1)%2, w%2, b%2)
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", "/v2/sessions/"+name+"/steps", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					errs <- fmt.Errorf("writer %d batch %d: %d %s", w, b, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() {
		writerWG.Wait()
		close(writersDone)
	}()
	select {
	case <-writersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("writers never finished")
	}
	close(stopSwap)
	select {
	case <-activatorDone:
	case <-time.After(10 * time.Second):
		t.Fatal("activator never stopped")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if swaps.Load() < 2 {
		t.Fatalf("only %d activations during the run", swaps.Load())
	}

	// Every in-flight session kept the revision pinned at creation and
	// accounted every step.
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("swap-%d", w)
		s, err := api.Registry().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := s.Summary()
		if sum.ModelRevision != "rev1" {
			t.Fatalf("%s rebound to revision %q mid-flight", name, sum.ModelRevision)
		}
		if sum.T != 2*batches {
			t.Fatalf("%s ended at t=%d, want %d", name, sum.T, 2*batches)
		}
	}

	// A session created now binds whatever revision is active now.
	cache.ActivateNamed("rev2", rev2)
	rec := doJSON(t, api.Handler(), "POST", "/v2/sessions",
		`{"name":"late","domain":2,"cohorts":[{"users":1,"model":{"ref":"road"}}]}`, nil)
	if rec.Code != 201 {
		t.Fatalf("late create: %d %s", rec.Code, rec.Body)
	}
	late, err := api.Registry().Get("late")
	if err != nil {
		t.Fatal(err)
	}
	if late.Summary().ModelRevision != "rev2" {
		t.Fatalf("late session revision %q, want rev2", late.Summary().ModelRevision)
	}

	// End the watch streams (deleting a session disconnects its
	// watchers) so the httptest server can close cleanly.
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("swap-%d", w)
		if rec := doJSON(t, api.Handler(), "DELETE", "/v2/sessions/"+name, "", nil); rec.Code != 204 {
			t.Fatalf("delete %s: %d", name, rec.Code)
		}
		select {
		case <-watchers[w]:
		case <-time.After(5 * time.Second):
			t.Fatalf("watch stream %d still open after delete", w)
		}
	}
}
