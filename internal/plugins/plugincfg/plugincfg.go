// Package plugincfg is the declarative configuration of tplserved's
// management plane: the schema of the -config file, the setting flags
// that override it (the single place where flag-vs-config precedence
// is enforced), its validation (usable standalone via
// -validate-config), and the factory that turns a parsed file into a
// running plugin manager. It is the only package
// that imports both the service and every plugin — the service itself
// stays ignorant of plugins, and plugins stay ignorant of each other.
package plugincfg

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/plugins/bundle"
	"repro/internal/plugins/logs"
	"repro/internal/plugins/manager"
	"repro/internal/plugins/status"
	"repro/internal/service"
)

// File is the tplserved config file. Every setting flag is registered
// directly onto its field here (Parse); flags set explicitly on the
// command line override the file, and the file overrides the built-in
// defaults (Default) — that one sentence is the whole precedence story.
type File struct {
	// Addr is the listen address.
	Addr string `json:"addr,omitempty"`
	// Quiet suppresses serving logs.
	Quiet bool `json:"quiet,omitempty"`
	// StateDir enables durable accounting (empty = ephemeral).
	StateDir string `json:"state_dir,omitempty"`
	// SnapshotEvery is the minimum number of steps between compactions.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// JournalSync is "none", "group" or "step".
	JournalSync string `json:"journal_sync,omitempty"`
	// JournalWindow is the group-commit linger (0 = none).
	JournalWindow manager.Duration `json:"journal_window,omitempty"`
	// EngineCacheDir enables the on-disk compiled-engine cache
	// (empty = compile fresh every process).
	EngineCacheDir string `json:"engine_cache_dir,omitempty"`
	// Role selects the process role: "serve" (default — one ingest
	// shard) or "router" (the cluster front door: no sessions of its
	// own, proxies traffic to the shards by consistent hashing).
	Role string `json:"role,omitempty"`
	// Shards lists the shard base URLs a router proxies to (router role
	// only; order fixes shard IDs, so keep it stable across restarts).
	Shards []string `json:"shards,omitempty"`
	// RingSize is the consistent-hash ring's slot count (router role
	// only; 0 = the cluster package default).
	RingSize int `json:"ring_size,omitempty"`
	// Plugins configures the management-plane plugins; a section that
	// is absent leaves that plugin off.
	Plugins Plugins `json:"plugins,omitempty"`
}

// Plugins is the per-plugin configuration block: each section is the
// plugin's own Config.
type Plugins struct {
	Bundle       *bundle.Config `json:"bundle,omitempty"`
	DecisionLogs *logs.Config   `json:"decision_logs,omitempty"`
	Status       *status.Config `json:"status,omitempty"`
}

// Default returns the built-in configuration — the single source of
// every tplserved default (the flags registered by Parse take theirs
// from here).
func Default() File {
	return File{
		Addr:        ":8344",
		JournalSync: string(service.JournalSyncGroup),
	}
}

// Parse registers -config and the setting flags on fs and parses args
// into the effective configuration: defaults < the -config file <
// explicitly-set flags. Each setting flag writes straight into its
// File field, so with a -config file the arguments are parsed a second
// time over the loaded file — only flags actually passed overwrite it.
// path is the -config value ("" when none was given).
func Parse(fs *flag.FlagSet, args []string) (f File, path string, err error) {
	f = Default()
	fs.StringVar(&path, "config", "", "JSON config file (schema: internal/plugins/plugincfg); explicitly-set flags override it")
	fs.StringVar(&f.Addr, "addr", f.Addr, "listen address (host:port; port 0 picks a free port)")
	fs.BoolVar(&f.Quiet, "quiet", f.Quiet, "suppress serving logs")
	fs.StringVar(&f.StateDir, "state-dir", f.StateDir, "directory for durable session state (snapshots + step journals); empty = ephemeral, state dies with the process")
	fs.IntVar(&f.SnapshotEvery, "snapshot-every", f.SnapshotEvery, "minimum steps between compactions, which rewrite a session's base snapshot once its journal outgrows it (0 = default; journal records are appended every batch regardless)")
	fs.StringVar(&f.JournalSync, "journal-sync", f.JournalSync, "journal durability: none (page-cache only), group (concurrent appends commit together; one fsync per journal per group) or step (fsync every batch)")
	fs.Var(&f.JournalWindow, "journal-window", "group-commit linger: how long a commit group may wait for companions before its fsync (0 = the default: commit whatever is queued at once)")
	fs.StringVar(&f.EngineCacheDir, "engine-cache-dir", f.EngineCacheDir, "directory for the on-disk compiled-engine cache: adversary models seen by any previous process warm-start instead of recompiling; empty = compile fresh every boot")
	fs.StringVar(&f.Role, "role", f.Role, "process role: serve (one ingest shard, the default) or router (cluster front door proxying to -shards by consistent hashing)")
	fs.Func("shards", "comma-separated shard list (role router): bare base URLs (order fixes IDs shard-0,shard-1,...) or id=addr pairs, e.g. a=http://h1:8344,b=http://h2:8344", func(list string) error {
		f.Shards = nil
		for _, a := range strings.Split(list, ",") {
			if a = strings.TrimSpace(a); a != "" {
				f.Shards = append(f.Shards, a)
			}
		}
		return nil
	})
	fs.IntVar(&f.RingSize, "ring-size", f.RingSize, "consistent-hash ring slots (role router; 0 = default)")
	if err := fs.Parse(args); err != nil || path == "" {
		return f, path, err
	}
	f = Default()
	if err := f.load(path); err != nil {
		return f, path, err
	}
	return f, path, fs.Parse(args)
}

// Load reads a config file over the defaults: absent keys keep their
// Default values, unknown keys are errors (a typoed key silently doing
// nothing is the worst failure mode a config can have).
func Load(path string) (File, error) {
	f := Default()
	err := f.load(path)
	return f, err
}

// load decodes the config file at path over f.
func (f *File) load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(f); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if dec.More() {
		return fmt.Errorf("parsing %s: trailing data after the config object", path)
	}
	return nil
}

// Validate checks the configuration and returns every problem found
// (nil means valid). The -validate-config mode prints this list.
func (f *File) Validate() []string {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if f.Addr == "" {
		bad("addr: must not be empty")
	}
	if f.SnapshotEvery < 0 {
		bad("snapshot_every: must not be negative, got %d", f.SnapshotEvery)
	}
	if f.JournalSync != "" {
		if _, err := service.ParseJournalSyncMode(f.JournalSync); err != nil {
			bad("journal_sync: %v", err)
		}
	}
	if f.JournalWindow < 0 {
		bad("journal_window: must not be negative")
	}
	switch f.Role {
	case "", "serve":
		if len(f.Shards) > 0 {
			bad("shards: only meaningful with role \"router\"")
		}
		if f.RingSize != 0 {
			bad("ring_size: only meaningful with role \"router\"")
		}
	case "router":
		if len(f.Shards) == 0 {
			bad("shards: role \"router\" needs at least one shard base URL")
		}
		if _, err := f.Topology(); err != nil && len(f.Shards) > 0 {
			bad("shards: %v", err)
		}
		if f.RingSize < 0 {
			bad("ring_size: must not be negative, got %d", f.RingSize)
		}
		// A router holds no sessions, so per-shard durability knobs are
		// misconfigurations rather than silent no-ops.
		if f.StateDir != "" {
			bad("state_dir: a router holds no session state; configure it on the shards")
		}
		if f.EngineCacheDir != "" {
			bad("engine_cache_dir: a router compiles no engines; configure it on the shards")
		}
		if f.Plugins != (Plugins{}) {
			bad("plugins: the management plane runs on the shards, not the router")
		}
	default:
		bad("role: %q is not a role (want \"serve\" or \"router\")", f.Role)
	}
	if c := f.Plugins.Bundle; c != nil {
		problems = append(problems, c.Problems("plugins.bundle")...)
	}
	if c := f.Plugins.DecisionLogs; c != nil {
		problems = append(problems, c.Problems("plugins.decision_logs")...)
	}
	if c := f.Plugins.Status; c != nil {
		problems = append(problems, c.Problems("plugins.status")...)
	}
	return problems
}

// Topology builds the router's placement document (router role only).
// Entries are bare addresses (positional shard-N IDs, stable as long
// as the order is) or explicit "id=addr" pairs.
func (f *File) Topology() (*cluster.Topology, error) {
	shards, err := cluster.ParseShardList(f.Shards)
	if err != nil {
		return nil, err
	}
	return cluster.New(shards, f.RingSize)
}

// Options converts the file to the service's serving options.
func (f *File) Options() service.Options {
	return service.Options{
		StateDir:       f.StateDir,
		SnapshotEvery:  f.SnapshotEvery,
		JournalSync:    f.JournalSync,
		JournalWindow:  time.Duration(f.JournalWindow),
		EngineCacheDir: f.EngineCacheDir,
	}
}

// BuildPlugins constructs the configured plugins into a manager wired
// to the registry: the bundle plugin activates into the registry's
// model cache, the decision-log plugin is attached as the registry's
// decision sink, and the status plugin reads the registry. Plugins
// start in registration order — bundle first, so models are available
// as early as possible; status last, so its first report sees the
// rest. A file configuring no plugins yields an empty (still
// startable) manager.
func (f *File) BuildPlugins(reg *service.Registry) (*manager.Manager, error) {
	var plugins []manager.Plugin
	if c := f.Plugins.Bundle; c != nil {
		p, err := bundle.NewPlugin(reg.ModelCache(), *c)
		if err != nil {
			return nil, err
		}
		plugins = append(plugins, p)
	}
	if c := f.Plugins.DecisionLogs; c != nil {
		p, err := logs.NewPlugin(*c)
		if err != nil {
			return nil, err
		}
		reg.SetDecisionSink(p)
		plugins = append(plugins, p)
	}
	if c := f.Plugins.Status; c != nil {
		plugins = append(plugins, status.NewPlugin(reg, *c))
	}
	m := manager.New()
	for _, p := range plugins {
		if err := m.Register(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}
