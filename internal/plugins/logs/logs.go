// Package logs implements the decision-log plugin: a bounded, batched,
// gzip'd NDJSON sink for the service's accounting decisions. Every
// ingestion outcome (service.Decision) is one JSON line; lines are
// batched, compressed, and shipped to an upload endpoint or appended
// to a local spool file. The sink never blocks the ingest hot path: a
// full buffer drops the record and counts the drop, because a privacy
// accountant that stalls ingestion to save an audit line has its
// priorities inverted — the drop counter is the honest record of the
// gap.
package logs

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plugins/manager"
	"repro/internal/service"
)

// Config drives the decision-log plugin. It is also the
// "plugins.decision_logs" section of the tplserved config file.
// Exactly one of UploadURL and SpoolPath must be set.
type Config struct {
	// UploadURL receives each batch as a POST with Content-Type
	// application/x-ndjson and Content-Encoding gzip.
	UploadURL string `json:"upload_url,omitempty"`
	// SpoolPath appends each batch to a local file as one gzip member
	// (concatenated members decode as one stream).
	SpoolPath string `json:"spool_path,omitempty"`
	// Buffer is the in-flight record capacity; past it, records are
	// dropped and counted (default 4096).
	Buffer int `json:"buffer,omitempty"`
	// Batch is the flush threshold in records (default 256).
	Batch int `json:"batch,omitempty"`
	// FlushInterval bounds how long a partial batch waits (default 2s).
	FlushInterval manager.Duration `json:"flush_interval,omitempty"`
	// Client overrides the upload HTTP client (tests).
	Client *http.Client `json:"-"`
}

// Problems returns every problem with the config, each prefixed with
// prefix (the section's path in the config file); nil means valid.
func (c *Config) Problems(prefix string) []string {
	var problems []string
	if (c.UploadURL == "") == (c.SpoolPath == "") {
		problems = append(problems, prefix+": exactly one of upload_url and spool_path must be set")
	}
	if c.Buffer < 0 || c.Batch < 0 {
		problems = append(problems, prefix+": buffer and batch must not be negative")
	}
	if c.FlushInterval < 0 {
		problems = append(problems, prefix+".flush_interval: must not be negative")
	}
	return problems
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Buffer <= 0 {
		c.Buffer = 4096
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = manager.Duration(2 * time.Second)
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Plugin is the decision-log sink. It implements service.DecisionSink
// (Record) and manager.Plugin; wire it with Registry.SetDecisionSink.
type Plugin struct {
	cfg      Config
	ch       chan service.Decision
	recorded atomic.Int64
	dropped  atomic.Int64

	mu       sync.Mutex
	lastErr  string
	batches  int64 // flushed batches
	shipped  int64 // records in them
	failures int64 // failed flushes (their records are lost and counted dropped)
}

// NewPlugin creates the decision-log plugin. It refuses a config with
// problems.
func NewPlugin(cfg Config) (*Plugin, error) {
	if problems := cfg.Problems("logs"); problems != nil {
		return nil, errors.New(strings.Join(problems, "; "))
	}
	cfg = cfg.withDefaults()
	return &Plugin{cfg: cfg, ch: make(chan service.Decision, cfg.Buffer)}, nil
}

// Record implements service.DecisionSink: one non-blocking channel
// send; a full buffer drops the record and counts it.
func (p *Plugin) Record(d service.Decision) {
	select {
	case p.ch <- d:
		p.recorded.Add(1)
	default:
		p.dropped.Add(1)
	}
}

// Name implements manager.Plugin.
func (p *Plugin) Name() string { return "decision_logs" }

// Status implements manager.Plugin.
func (p *Plugin) Status() manager.Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	detail := map[string]any{
		"recorded":       p.recorded.Load(),
		"dropped":        p.dropped.Load(),
		"batches":        p.batches,
		"shipped":        p.shipped,
		"flush_failures": p.failures,
		"batch_size":     p.cfg.Batch,
	}
	if p.cfg.UploadURL != "" {
		detail["upload_url"] = p.cfg.UploadURL
	}
	if p.cfg.SpoolPath != "" {
		detail["spool_path"] = p.cfg.SpoolPath
	}
	return manager.Status{Message: p.lastErr, Detail: detail}
}

// Run implements manager.Plugin. It drains the channel into batches
// and flushes on size or timer. On cancellation it drains whatever is
// already buffered and flushes once more, so a graceful stop loses
// nothing that Record accepted.
func (p *Plugin) Run(ctx context.Context) {
	var batch []service.Decision
	ticker := time.NewTicker(time.Duration(p.cfg.FlushInterval))
	defer ticker.Stop()
	flush := func() {
		if len(batch) == 0 {
			return
		}
		p.flush(batch)
		batch = batch[:0]
	}
	for {
		select {
		case d := <-p.ch:
			batch = append(batch, d)
			if len(batch) >= p.cfg.Batch {
				flush()
			}
		case <-ticker.C:
			flush()
		case <-ctx.Done():
			for {
				select {
				case d := <-p.ch:
					batch = append(batch, d)
					continue
				default:
				}
				break
			}
			flush()
			return
		}
	}
}

// flush encodes one batch as gzip'd NDJSON and ships it. A failed
// flush loses the batch: its records move to the dropped count so the
// totals stay honest.
func (p *Plugin) flush(batch []service.Decision) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	enc := json.NewEncoder(zw) // Encode appends the newline: NDJSON
	var err error
	for _, d := range batch {
		if err = enc.Encode(d); err != nil {
			break
		}
	}
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if p.cfg.UploadURL != "" {
			err = upload(p.cfg, buf.Bytes())
		} else {
			err = spool(p.cfg.SpoolPath, buf.Bytes())
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.failures++
		p.lastErr = err.Error()
		p.dropped.Add(int64(len(batch)))
		return
	}
	p.lastErr = ""
	p.batches++
	p.shipped += int64(len(batch))
}

// upload POSTs one compressed batch.
func upload(cfg Config, gz []byte) error {
	req, err := http.NewRequest(http.MethodPost, cfg.UploadURL, bytes.NewReader(gz))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("logs: upload to %s returned %s", cfg.UploadURL, resp.Status)
	}
	return nil
}

// spool appends one gzip member to the spool file.
func spool(path string, gz []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(gz)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
