package manager

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// trace is a lifecycle log shared by fake plugins running on their own
// goroutines.
type trace struct {
	mu     sync.Mutex
	events []string
}

func (t *trace) add(ev string) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

func (t *trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprint(t.events)
}

// fakePlugin records its Run's entry and exit into a shared trace.
type fakePlugin struct {
	name    string
	trace   *trace
	entered chan<- struct{}
	state   string // what Status reports ("" or "error")
}

func (f *fakePlugin) Name() string { return f.name }
func (f *fakePlugin) Run(ctx context.Context) {
	f.trace.add("start:" + f.name)
	f.entered <- struct{}{}
	<-ctx.Done()
	f.trace.add("stop:" + f.name)
}
func (f *fakePlugin) Status() Status { return Status{State: f.state} }

func TestManagerLifecycle(t *testing.T) {
	var tr trace
	entered := make(chan struct{})
	m := New()
	// Each launch waits until its Run has recorded, so the trace shows
	// the order the manager launches in.
	m.spawn = func(run func()) {
		go run()
		<-entered
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := m.Register(&fakePlugin{name: name, trace: &tr, entered: entered}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Register(&fakePlugin{name: "b", trace: &tr, entered: entered}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if st := m.StatusAll(); len(st) != 3 || st["a"].State != "registered" {
		t.Fatalf("StatusAll before start %+v", st)
	}
	ctx := context.Background()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(ctx); err == nil {
		t.Fatal("double start accepted")
	}
	if err := m.Register(&fakePlugin{name: "d", trace: &tr, entered: entered}); err == nil {
		t.Fatal("registration after start accepted")
	}
	st := m.StatusAll()
	if len(st) != 3 || st["a"].State != "running" {
		t.Fatalf("StatusAll %+v", st)
	}
	m.Stop(ctx)
	m.Stop(ctx) // idempotent
	want := []string{"start:a", "start:b", "start:c", "stop:c", "stop:b", "stop:a"}
	if tr.String() != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", tr.String(), want)
	}
	if st := m.StatusAll(); st["a"].State != "stopped" || st["c"].State != "stopped" {
		t.Fatalf("StatusAll after stop %+v", st)
	}
}

// TestManagerStatusStates pins the state mapping healthz reports: the
// manager's lifecycle state, except that a running plugin may report
// "error".
func TestManagerStatusStates(t *testing.T) {
	var tr trace
	entered := make(chan struct{}, 1)
	m := New()
	p := &fakePlugin{name: "a", trace: &tr, entered: entered, state: "error"}
	m.Register(p)
	if got := m.StatusAll()["a"].State; got != "registered" {
		t.Fatalf("unstarted failing plugin reports %q", got)
	}
	m.Start(context.Background())
	<-entered
	if got := m.StatusAll()["a"].State; got != "error" {
		t.Fatalf("running failing plugin reports %q", got)
	}
	m.Stop(context.Background())
	if got := m.StatusAll()["a"].State; got != "stopped" {
		t.Fatalf("stopped failing plugin reports %q", got)
	}
}

// stuckPlugin ignores cancellation until released.
type stuckPlugin struct{ release chan struct{} }

func (s *stuckPlugin) Name() string            { return "stuck" }
func (s *stuckPlugin) Run(ctx context.Context) { <-s.release }
func (s *stuckPlugin) Status() Status          { return Status{} }

// TestManagerStopBounded checks that Stop's context bounds the wait for
// a plugin that does not return.
func TestManagerStopBounded(t *testing.T) {
	p := &stuckPlugin{release: make(chan struct{})}
	defer close(p.release)
	m := New()
	m.Register(p)
	m.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	m.Stop(ctx)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Stop waited %v past its context", d)
	}
	if got := m.StatusAll()["stuck"].State; got != "stopped" {
		t.Fatalf("state after bounded stop %q", got)
	}
}
