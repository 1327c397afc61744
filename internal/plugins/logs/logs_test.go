package logs

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/plugins/manager"
	"repro/internal/service"
)

// readSpool decodes a spool file's concatenated gzip members into
// decisions.
func readSpool(t *testing.T, path string) []service.Decision {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f) // multistream: reads every member
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	var out []service.Decision
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var d service.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSpoolFlushOnStopAndBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.ndjson.gz")
	p, err := NewPlugin(Config{SpoolPath: path, Batch: 3, FlushInterval: manager.Duration(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	m := startPlugin(t, p)
	// Three records hit the batch threshold and flush without waiting
	// for the (hour-long) timer.
	for i := 1; i <= 3; i++ {
		p.Record(service.Decision{Session: "s", Kind: "steps", FirstT: i, LastT: i, Steps: 1})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch threshold never flushed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Two more stay buffered until the graceful stop flushes them.
	p.Record(service.Decision{Session: "s", Kind: "refusal", Code: "budget_exhausted"})
	p.Record(service.Decision{Session: "s", Kind: "replay", FirstT: 1, LastT: 1})
	m.Stop(context.Background())
	recs := readSpool(t, path)
	if len(recs) != 5 {
		t.Fatalf("%d spooled decisions, want 5", len(recs))
	}
	if recs[0].FirstT != 1 || recs[2].FirstT != 3 {
		t.Fatalf("spool order wrong: %+v", recs[:3])
	}
	if recs[3].Kind != "refusal" || recs[3].Code != "budget_exhausted" || recs[4].Kind != "replay" {
		t.Fatalf("stop-flushed records %+v", recs[3:])
	}
	if d := p.Status().Detail["dropped"].(int64); d != 0 {
		t.Fatalf("dropped %d", d)
	}
}

func TestUploadEndpoint(t *testing.T) {
	var mu sync.Mutex
	var got []service.Decision
	var encodings []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		encodings = append(encodings, r.Header.Get("Content-Encoding"))
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		data, _ := io.ReadAll(zr)
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var d service.Decision
			if err := json.Unmarshal(line, &d); err != nil {
				t.Errorf("bad line %q: %v", line, err)
				continue
			}
			got = append(got, d)
		}
	}))
	defer ts.Close()
	p, err := NewPlugin(Config{UploadURL: ts.URL, Batch: 2, FlushInterval: manager.Duration(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	m := startPlugin(t, p)
	for i := 1; i <= 5; i++ {
		p.Record(service.Decision{Session: "u", Kind: "steps", FirstT: i})
	}
	m.Stop(context.Background())
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("%d uploaded decisions, want 5", len(got))
	}
	for _, enc := range encodings {
		if enc != "gzip" {
			t.Fatalf("upload encoding %q", enc)
		}
	}
	st := p.Status()
	if st.Detail["shipped"].(int64) != 5 || st.Detail["dropped"].(int64) != 0 {
		t.Fatalf("status detail %+v", st.Detail)
	}
}

func TestOverflowDropsAndCounts(t *testing.T) {
	// Unstarted plugin: nothing drains the buffer, so records past the
	// capacity must drop without blocking.
	p, err := NewPlugin(Config{SpoolPath: filepath.Join(t.TempDir(), "s.gz"), Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			p.Record(service.Decision{Kind: "steps", FirstT: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked on a full buffer")
	}
	if d := p.Status().Detail["dropped"].(int64); d != 96 {
		t.Fatalf("dropped %d, want 96", d)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewPlugin(Config{}); err == nil {
		t.Fatal("no destination accepted")
	}
	if _, err := NewPlugin(Config{UploadURL: "http://x", SpoolPath: "/tmp/y"}); err == nil {
		t.Fatal("two destinations accepted")
	}
	if _, err := NewPlugin(Config{SpoolPath: filepath.Join(t.TempDir(), "s.gz")}); err != nil {
		t.Fatal(err)
	}
}

// startPlugin runs p under a manager; the manager's Stop ends it.
func startPlugin(t *testing.T, p manager.Plugin) *manager.Manager {
	t.Helper()
	m := manager.New()
	if err := m.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m
}
