package plugincfg

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/plugins/bundle"
	"repro/internal/plugins/logs"
	"repro/internal/plugins/manager"
	"repro/internal/plugins/status"
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
	f.Plugins.Bundle = &bundle.Config{PublicKey: "zz"}
	f.Plugins.DecisionLogs = &logs.Config{UploadURL: "http://x", SpoolPath: "/y"}
	f.Plugins.Status = &status.Config{Interval: manager.Duration(-time.Second)}
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
	g.Plugins.DecisionLogs = &logs.Config{}
	if g.Validate() == nil {
		t.Error("destination-less decision_logs validated")
	}
	d := Default()
	if problems := d.Validate(); problems != nil {
		t.Errorf("defaults invalid: %v", problems)
	}
}

// parseArgs runs the production command-line parser on a fresh flag
// set.
func parseArgs(t *testing.T, args ...string) File {
	t.Helper()
	fs := flag.NewFlagSet("tplserved", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f, _, err := Parse(fs, args)
	if err != nil {
		t.Fatalf("Parse(%q): %v", args, err)
	}
	return f
}

// TestParsePrecedence is the regression test for the precedence
// contract over every setting flag: defaults < config file <
// explicitly-set flags. A flag left unset must NOT shadow the file's
// value, even when the file differs from the flag's default.
func TestParsePrecedence(t *testing.T) {
	cases := []struct {
		flag, flagVal string
		fileJSON      string // the setting's key and value in the file
		get           func(File) any
		wantFlag      any
		wantFile      any
	}{
		{"addr", ":9999", `"addr": ":1111"`, func(f File) any { return f.Addr }, ":9999", ":1111"},
		{"quiet", "false", `"quiet": true`, func(f File) any { return f.Quiet }, false, true},
		{"state-dir", "/flagstate", `"state_dir": "/data"`, func(f File) any { return f.StateDir }, "/flagstate", "/data"},
		{"snapshot-every", "7", `"snapshot_every": 9`, func(f File) any { return f.SnapshotEvery }, 7, 9},
		{"journal-sync", "none", `"journal_sync": "step"`, func(f File) any { return f.JournalSync }, "none", "step"},
		{"journal-window", "4ms", `"journal_window": "9ms"`, func(f File) any { return time.Duration(f.JournalWindow) }, 4 * time.Millisecond, 9 * time.Millisecond},
		{"engine-cache-dir", "/flagcache", `"engine_cache_dir": "/filecache"`, func(f File) any { return f.EngineCacheDir }, "/flagcache", "/filecache"},
		{"role", "router", `"role": "serve"`, func(f File) any { return f.Role }, "router", "serve"},
		{"shards", " a=http://h1 ,b=http://h2,", `"shards": ["http://f1"]`, func(f File) any { return f.Shards }, []string{"a=http://h1", "b=http://h2"}, []string{"http://f1"}},
		{"ring-size", "64", `"ring_size": 32`, func(f File) any { return f.RingSize }, 64, 32},
	}
	for _, c := range cases {
		t.Run(c.flag, func(t *testing.T) {
			path := writeConfig(t, "{"+c.fileJSON+"}")
			if got := c.get(parseArgs(t, "-config", path, "-"+c.flag+"="+c.flagVal)); !reflect.DeepEqual(got, c.wantFlag) {
				t.Errorf("flag and file: got %#v, want the flag's %#v", got, c.wantFlag)
			}
			if got := c.get(parseArgs(t, "-config", path)); !reflect.DeepEqual(got, c.wantFile) {
				t.Errorf("file only: got %#v, want the file's %#v", got, c.wantFile)
			}
			if got, want := c.get(parseArgs(t)), c.get(Default()); !reflect.DeepEqual(got, want) {
				t.Errorf("neither: got %#v, want the default %#v", got, want)
			}
			if got := c.get(parseArgs(t, "-"+c.flag+"="+c.flagVal)); !reflect.DeepEqual(got, c.wantFlag) {
				t.Errorf("flag only: got %#v, want %#v", got, c.wantFlag)
			}
		})
	}
	// Unparsable arguments and files surface as errors.
	fs := flag.NewFlagSet("tplserved", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, _, err := Parse(fs, []string{"-journal-window", "5"}); err == nil {
		t.Error("bare-number -journal-window accepted")
	}
	fs = flag.NewFlagSet("tplserved", flag.ContinueOnError)
	if _, path, err := Parse(fs, []string{"-config", filepath.Join(t.TempDir(), "missing.json")}); err == nil || path == "" {
		t.Errorf("missing -config file: path %q, err %v", path, err)
	}
}

// TestLoadEveryKey decodes a file naming every top-level and every
// plugin key once: a mistyped JSON tag leaves its field zero (or is
// rejected as unknown) and fails here.
func TestLoadEveryKey(t *testing.T) {
	key := strings.Repeat("ab", 32)
	f, err := Load(writeConfig(t, fmt.Sprintf(`{
		"addr": ":1", "quiet": true, "state_dir": "/s", "snapshot_every": 3,
		"journal_sync": "step", "journal_window": "2ms", "engine_cache_dir": "/e",
		"role": "router", "shards": ["http://a", "http://b"], "ring_size": 5,
		"plugins": {
			"bundle": {"url": "http://b/", "public_key": %q, "poll": "1s", "min_backoff": "2s", "max_backoff": "3s"},
			"decision_logs": {"upload_url": "http://u/", "spool_path": "/sp", "buffer": 7, "batch": 8, "flush_interval": "4s"},
			"status": {"interval": "5s", "upload_url": "http://st/"}
		}
	}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	want := File{
		Addr: ":1", Quiet: true, StateDir: "/s", SnapshotEvery: 3,
		JournalSync: "step", JournalWindow: manager.Duration(2 * time.Millisecond), EngineCacheDir: "/e",
		Role: "router", Shards: []string{"http://a", "http://b"}, RingSize: 5,
		Plugins: Plugins{
			Bundle: &bundle.Config{URL: "http://b/", PublicKey: key, Poll: manager.Duration(time.Second),
				MinBackoff: manager.Duration(2 * time.Second), MaxBackoff: manager.Duration(3 * time.Second)},
			DecisionLogs: &logs.Config{UploadURL: "http://u/", SpoolPath: "/sp", Buffer: 7, Batch: 8,
				FlushInterval: manager.Duration(4 * time.Second)},
			Status: &status.Config{Interval: manager.Duration(5 * time.Second), UploadURL: "http://st/"},
		},
	}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", f, want)
	}
	wantOpts := service.Options{StateDir: "/s", SnapshotEvery: 3, JournalSync: "step", JournalWindow: 2 * time.Millisecond, EngineCacheDir: "/e"}
	if opts := f.Options(); opts != wantOpts {
		t.Fatalf("options %+v, want %+v", opts, wantOpts)
	}
}

func TestBuildPlugins(t *testing.T) {
	f := Default()
	f.Plugins.Bundle = &bundle.Config{URL: "http://bundles/"}
	f.Plugins.DecisionLogs = &logs.Config{SpoolPath: filepath.Join(t.TempDir(), "dec.gz")}
	f.Plugins.Status = &status.Config{}
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
	bad.Plugins.Bundle = &bundle.Config{URL: "http://x", PublicKey: "nothex"}
	if _, err := bad.BuildPlugins(service.NewRegistry()); err == nil {
		t.Fatal("bad public key accepted")
	}
}
