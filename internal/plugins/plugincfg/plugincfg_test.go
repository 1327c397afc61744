package plugincfg

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/stream"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadOverDefaults(t *testing.T) {
	path := writeConfig(t, `{
		"state_dir": "/var/lib/tplserved",
		"journal_window": "3ms",
		"plugins": {
			"bundle": {"url": "http://bundles/", "poll": "45s"},
			"decision_logs": {"spool_path": "/tmp/dec.gz", "batch": 512},
			"status": {"interval": "1m"}
		}
	}`)
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Absent keys keep their defaults.
	if f.Addr != ":8344" || f.JournalSync != "group" {
		t.Fatalf("defaults not preserved: %+v", f)
	}
	if f.StateDir != "/var/lib/tplserved" || time.Duration(f.JournalWindow) != 3*time.Millisecond {
		t.Fatalf("file values not applied: %+v", f)
	}
	if f.Plugins.Bundle == nil || f.Plugins.Bundle.URL != "http://bundles/" || time.Duration(f.Plugins.Bundle.Poll) != 45*time.Second {
		t.Fatalf("bundle block %+v", f.Plugins.Bundle)
	}
	if f.Plugins.DecisionLogs == nil || f.Plugins.DecisionLogs.Batch != 512 {
		t.Fatalf("decision_logs block %+v", f.Plugins.DecisionLogs)
	}
	if f.Plugins.Status == nil || time.Duration(f.Plugins.Status.Interval) != time.Minute {
		t.Fatalf("status block %+v", f.Plugins.Status)
	}
	if problems := f.Validate(); problems != nil {
		t.Fatalf("valid config rejected: %v", problems)
	}
}

func TestLoadRejectsBadFiles(t *testing.T) {
	cases := map[string]string{
		"unknown key":   `{"adr": ":1"}`,
		"typoed nested": `{"plugins": {"bundle": {"uri": "http://x"}}}`,
		"bare number":   `{"journal_window": 5}`,
		"bad duration":  `{"journal_window": "5 sec"}`,
		"trailing data": `{"addr": ":1"} {"addr": ":2"}`,
	}
	for name, body := range cases {
		if _, err := Load(writeConfig(t, body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestValidateCollectsEveryProblem(t *testing.T) {
	f := Default()
	f.Addr = ""
	f.SnapshotEvery = -1
	f.JournalSync = "sometimes"
	f.Plugins.Bundle = &Bundle{PublicKey: "zz"}
	f.Plugins.DecisionLogs = &DecisionLogs{UploadURL: "http://x", SpoolPath: "/y"}
	f.Plugins.Status = &Status{Interval: Duration(-time.Second)}
	problems := f.Validate()
	for _, want := range []string{
		"addr:", "snapshot_every:", "journal_sync:",
		"plugins.bundle.url:", "plugins.bundle.public_key:",
		"plugins.decision_logs:", "plugins.status.interval:",
	} {
		found := false
		for _, p := range problems {
			if strings.HasPrefix(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no problem reported for %s (got %v)", want, problems)
		}
	}
	// Zero decision-log destinations is as invalid as two.
	g := Default()
	g.Plugins.DecisionLogs = &DecisionLogs{}
	if g.Validate() == nil {
		t.Error("destination-less decision_logs validated")
	}
	d := Default()
	if problems := d.Validate(); problems != nil {
		t.Errorf("defaults invalid: %v", problems)
	}
}

// TestApplyFlagsPrecedence is the regression test for the precedence
// contract: defaults < config file < explicitly-set flags. A flag left
// at its default must NOT shadow the file's value, even when the two
// differ.
func TestApplyFlagsPrecedence(t *testing.T) {
	def := Default()
	fs := flag.NewFlagSet("tplserved", flag.ContinueOnError)
	addr := fs.String("addr", def.Addr, "")
	quiet := fs.Bool("quiet", def.Quiet, "")
	stateDir := fs.String("state-dir", def.StateDir, "")
	snapshotEvery := fs.Int("snapshot-every", def.SnapshotEvery, "")
	journalSync := fs.String("journal-sync", def.JournalSync, "")
	journalWindow := fs.Duration("journal-window", time.Duration(def.JournalWindow), "")
	engineCacheDir := fs.String("engine-cache-dir", def.EngineCacheDir, "")
	role := fs.String("role", def.Role, "")
	shards := fs.String("shards", "", "")
	ringSize := fs.Int("ring-size", def.RingSize, "")
	// The user passes exactly three flags.
	if err := fs.Parse([]string{"-addr", ":9999", "-snapshot-every", "7", "-engine-cache-dir", "/flagcache"}); err != nil {
		t.Fatal(err)
	}

	f, err := Load(writeConfig(t, `{
		"addr": ":1111",
		"state_dir": "/data",
		"journal_sync": "step",
		"journal_window": "9ms",
		"engine_cache_dir": "/filecache"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	f.ApplyFlags(fs, addr, quiet, stateDir, snapshotEvery, journalSync, journalWindow, engineCacheDir, role, shards, ringSize)

	// Explicit flags win over the file.
	if f.Addr != ":9999" || f.SnapshotEvery != 7 || f.EngineCacheDir != "/flagcache" {
		t.Fatalf("explicit flags did not win: %+v", f)
	}
	// Unset flags must not drag the file's values back to the flag
	// defaults ("group" is journal-sync's default, the file says
	// "step").
	if f.StateDir != "/data" || f.JournalSync != "step" || time.Duration(f.JournalWindow) != 9*time.Millisecond {
		t.Fatalf("flag defaults shadowed the file: %+v", f)
	}
	opts := f.Options()
	if opts.StateDir != "/data" || opts.JournalSync != "step" || opts.SnapshotEvery != 7 || opts.EngineCacheDir != "/flagcache" {
		t.Fatalf("options %+v", opts)
	}
}

func TestBuildPlugins(t *testing.T) {
	f := Default()
	f.Plugins.Bundle = &Bundle{URL: "http://bundles/"}
	f.Plugins.DecisionLogs = &DecisionLogs{SpoolPath: filepath.Join(t.TempDir(), "dec.gz")}
	f.Plugins.Status = &Status{}
	reg := service.NewRegistry()
	m, err := f.BuildPlugins(reg)
	if err != nil {
		t.Fatal(err)
	}
	st := m.StatusAll()
	if len(st) != 3 || st["bundle"].State != "registered" || st["decision_logs"].State != "registered" || st["status"].State != "registered" {
		t.Fatalf("registered plugins %v", st)
	}

	// The decision-log plugin is attached as the registry's sink: an
	// accounting decision reaches it without the plugin even running.
	if _, err := reg.Create(&service.SessionConfig{Name: "s", Domain: 2, Users: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := reg.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.5
	if _, _, err := s.CollectBatch("", []stream.BatchStep{{Values: []int{0}, Eps: &eps}}); err != nil {
		t.Fatal(err)
	}
	lp, ok := m.StatusAll()["decision_logs"]
	if !ok {
		t.Fatal("decision_logs not registered")
	}
	if got := lp.Detail["recorded"].(int64); got != 1 {
		t.Fatalf("sink recorded %d decisions, want 1", got)
	}

	// An empty plugins block still yields a startable (empty) manager.
	empty := Default()
	if m, err = empty.BuildPlugins(service.NewRegistry()); err != nil {
		t.Fatal(err)
	} else if st := m.StatusAll(); len(st) != 0 {
		t.Fatalf("empty config registered %v", st)
	}

	// A bad public key surfaces at build time.
	bad := Default()
	bad.Plugins.Bundle = &Bundle{URL: "http://x", PublicKey: "nothex"}
	if _, err := bad.BuildPlugins(service.NewRegistry()); err == nil {
		t.Fatal("bad public key accepted")
	}
}
