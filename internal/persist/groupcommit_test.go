package persist

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestJournal(t *testing.T, s *Store, name string) *Journal {
	t.Helper()
	j, err := s.OpenJournal(name)
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", name, err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func replayBodies(t *testing.T, s *Store, name string) []string {
	t.Helper()
	var bodies []string
	if _, err := s.ReplayJournal(name, func(version uint32, body []byte) error {
		bodies = append(bodies, string(body))
		return nil
	}); err != nil {
		t.Fatalf("ReplayJournal(%s): %v", name, err)
	}
	return bodies
}

// Concurrent appenders across several journals: every record must land,
// and each journal's records must replay in the order its (single)
// appender submitted them — the FIFO contract sessions rely on. Run with
// no linger (the default) and with a window.
func TestGroupCommitterConcurrentOrdering(t *testing.T) {
	for _, window := range []time.Duration{0, 500 * time.Microsecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			s, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			g := NewGroupCommitter(window)
			defer g.Close()

			const journals = 8
			const perJournal = 50
			var wg sync.WaitGroup
			for i := 0; i < journals; i++ {
				name := fmt.Sprintf("sess-%d", i)
				j := newTestJournal(t, s, name)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < perJournal; k++ {
						body := []byte(fmt.Sprintf("%s:%d", name, k))
						if err := g.Append(j, 1, body); err != nil {
							t.Errorf("Append(%s, %d): %v", name, k, err)
							return
						}
					}
				}()
			}
			wg.Wait()

			for i := 0; i < journals; i++ {
				name := fmt.Sprintf("sess-%d", i)
				bodies := replayBodies(t, s, name)
				if len(bodies) != perJournal {
					t.Fatalf("journal %s: replayed %d records, want %d", name, len(bodies), perJournal)
				}
				for k, b := range bodies {
					want := fmt.Sprintf("%s:%d", name, k)
					if b != want {
						t.Fatalf("journal %s record %d: got %q, want %q", name, k, b, want)
					}
				}
			}
		})
	}
}

// A write failure must poison only its own journal; a healthy journal
// appended beside it still commits. The wide window puts both appends
// in one group; with no linger they may commit in one group or two.
func TestGroupCommitterPoisonedJournal(t *testing.T) {
	for _, window := range []time.Duration{0, 200 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			s, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			g := NewGroupCommitter(window)
			defer g.Close()

			bad := newTestJournal(t, s, "bad")
			good := newTestJournal(t, s, "good")
			// Closing the underlying file makes every subsequent write fail.
			bad.f.Close()

			var wg sync.WaitGroup
			var badErr, goodErr error
			wg.Add(2)
			go func() { defer wg.Done(); badErr = g.Append(bad, 1, []byte("doomed")) }()
			go func() { defer wg.Done(); goodErr = g.Append(good, 1, []byte("fine")) }()
			wg.Wait()

			if badErr == nil {
				t.Fatal("append to closed journal: want error, got nil")
			}
			if goodErr != nil {
				t.Fatalf("append to healthy journal beside a failing one: %v", goodErr)
			}
			if bodies := replayBodies(t, s, "good"); len(bodies) != 1 || bodies[0] != "fine" {
				t.Fatalf("good journal replay: %v", bodies)
			}
		})
	}
}

// One group over several journals: the leader syncs the first journal
// and a goroutine each syncs the rest, and every ack waits for the join.
// The group is handed to flush directly, so it holds all the journals
// whatever the scheduling; a journal written twice in the group is
// synced once, and a poisoned journal fails only its own requests.
func TestGroupCommitterFlushSyncsEveryJournal(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := newTestJournal(t, s, "a")
	b := newTestJournal(t, s, "b")
	c := newTestJournal(t, s, "c")
	bad := newTestJournal(t, s, "bad")
	bad.f.Close()

	req := func(j *Journal, body string) *commitReq {
		return &commitReq{j: j, version: 1, body: []byte(body), done: make(chan error, 1)}
	}
	batch := []*commitReq{
		req(a, "a0"), req(b, "b0"), req(bad, "x0"), req(c, "c0"), req(a, "a1"), req(bad, "x1"),
	}
	var g GroupCommitter
	g.flush(batch)

	for i, r := range batch {
		err := <-r.done
		if (r.j == bad) != (err != nil) {
			t.Errorf("request %d (%s): ack %v", i, r.body, err)
		}
	}
	for name, want := range map[string][]string{"a": {"a0", "a1"}, "b": {"b0"}, "c": {"c0"}} {
		if got := replayBodies(t, s, name); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("journal %s replayed %q, want %q", name, got, want)
		}
	}
}

// Close must flush whatever is queued, and appends after Close must be
// refused rather than silently dropped.
func TestGroupCommitterCloseFlushesAndRefuses(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A long window so records are still lingering when Close arrives.
	g := NewGroupCommitter(time.Minute)
	j := newTestJournal(t, s, "sess")

	const n = 5
	var wg sync.WaitGroup
	errs := make([]error, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = g.Append(j, 1, []byte(fmt.Sprintf("r%d", k)))
		}()
	}
	// Let the appends reach the queue before closing.
	time.Sleep(20 * time.Millisecond)
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("append %d during close: %v", k, err)
		}
	}
	if bodies := replayBodies(t, s, "sess"); len(bodies) != n {
		t.Fatalf("replayed %d records after Close, want %d", len(bodies), n)
	}
	if err := g.Append(j, 1, []byte("late")); err != ErrCommitterClosed {
		t.Fatalf("append after Close: got %v, want ErrCommitterClosed", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
