// Package manager hosts the service's management-plane plugins: small
// background components (bundle polling, decision logging, status
// reporting) built once at boot from the declarative config file
// tplserved loads. A plugin is a run loop; the manager owns everything
// around it — the goroutines, start order, bounded reverse-order stop,
// the lifecycle state — and the aggregated status the healthz endpoint
// reports. It is deliberately ignorant of what a plugin does.
package manager

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("2s", "500ms") — the config file's only duration spelling; bare
// numbers are rejected so a config can never be ambiguous about units.
// It is also a flag.Value with the same spelling.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("durations are strings like \"30s\" or \"500ms\", got %s", b)
	}
	return d.Set(s)
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// String implements flag.Value.
func (d Duration) String() string { return time.Duration(d).String() }

// Set implements flag.Value.
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Plugin is one managed component. Its config is fixed at construction.
type Plugin interface {
	// Name identifies the plugin in status reports.
	Name() string
	// Run does the plugin's background work and blocks until ctx is
	// cancelled; before returning it flushes whatever the plugin
	// buffers.
	Run(ctx context.Context)
	// Status reports the plugin's detail. It must be safe to call from
	// any goroutine, whether or not Run is executing. The plugin leaves
	// State empty, or sets "error" while its work is failing; the
	// manager fills in the lifecycle state.
	Status() Status
}

// Status is one plugin's health digest, embedded in the healthz
// "plugins" block.
type Status struct {
	// State is "registered", "running", "stopped" or "error".
	State string `json:"state"`
	// Message carries the last error.
	Message string `json:"message,omitempty"`
	// Detail is plugin-specific (bundle revision, dropped decisions,
	// last report time, ...).
	Detail map[string]any `json:"detail,omitempty"`
}

// Lifecycle states the manager assigns.
const (
	stateRegistered = "registered"
	stateRunning    = "running"
	stateStopped    = "stopped"
)

// entry is one registered plugin and the goroutine running it.
type entry struct {
	p      Plugin
	state  string
	cancel context.CancelFunc
	done   chan struct{}
}

// Manager owns an ordered set of plugins. Registration happens before
// Start; Start and Stop bracket the serving lifetime; StatusAll is safe
// throughout.
type Manager struct {
	mu      sync.Mutex
	entries []*entry
	started bool
	// spawn launches one Run goroutine (tests observe launch order).
	spawn func(run func())
}

// New creates an empty manager.
func New() *Manager {
	return &Manager{spawn: func(run func()) { go run() }}
}

// Register adds a plugin. Registration order is start order (and the
// reverse is stop order, so later plugins may depend on earlier ones).
// Duplicate names and registration after Start are errors.
func (m *Manager) Register(p Plugin) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("plugins: cannot register %q after start", p.Name())
	}
	for _, e := range m.entries {
		if e.p.Name() == p.Name() {
			return fmt.Errorf("plugins: duplicate plugin %q", p.Name())
		}
	}
	m.entries = append(m.entries, &entry{p: p, state: stateRegistered})
	return nil
}

// Start launches every plugin's Run on its own goroutine, in
// registration order, under a context derived from ctx. A manager
// starts once.
func (m *Manager) Start(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("plugins: already started")
	}
	m.started = true
	for _, e := range m.entries {
		runCtx, cancel := context.WithCancel(ctx)
		e.cancel, e.done, e.state = cancel, make(chan struct{}), stateRunning
		p, done := e.p, e.done
		m.spawn(func() {
			defer close(done)
			p.Run(runCtx)
		})
	}
	return nil
}

// Stop cancels the plugins in reverse registration order, waiting for
// each Run to return before cancelling the next. ctx bounds the whole
// stop: once it is done, the remaining plugins are cancelled without
// waiting. The lock is not held while waiting, so StatusAll keeps
// answering during a slow flush. Idempotent.
func (m *Manager) Stop(ctx context.Context) {
	m.mu.Lock()
	entries := m.entries
	m.mu.Unlock()
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		m.mu.Lock()
		running := e.state == stateRunning
		m.mu.Unlock()
		if !running {
			continue
		}
		e.cancel()
		select {
		case <-e.done:
		case <-ctx.Done():
		}
		m.mu.Lock()
		e.state = stateStopped
		m.mu.Unlock()
	}
}

// StatusAll aggregates every plugin's status, keyed by name — the
// healthz "plugins" block.
func (m *Manager) StatusAll() map[string]Status {
	m.mu.Lock()
	plugins := make([]Plugin, len(m.entries))
	states := make([]string, len(m.entries))
	for i, e := range m.entries {
		plugins[i], states[i] = e.p, e.state
	}
	m.mu.Unlock()
	out := make(map[string]Status, len(plugins))
	for i, p := range plugins {
		st := p.Status()
		if st.State == "" || states[i] != stateRunning {
			st.State = states[i]
		}
		out[p.Name()] = st
	}
	return out
}
