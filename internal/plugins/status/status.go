// Package status implements the status plugin: periodic digests of
// the management plane's vital signs — active bundle revision,
// snapshot ages and journal health, and per-session budget pressure —
// kept for the healthz endpoint and optionally POSTed to a collection
// endpoint, so a fleet operator sees every instance's accounting
// health without scraping each one.
package status

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/plugins/manager"
	"repro/internal/service"
)

// Config drives the status plugin. It is also the "plugins.status"
// section of the tplserved config file.
type Config struct {
	// Interval is the reporting period (default 30s).
	Interval manager.Duration `json:"interval,omitempty"`
	// UploadURL, when set, receives each report as a POST of JSON.
	UploadURL string `json:"upload_url,omitempty"`
	// Client overrides the upload HTTP client (tests).
	Client *http.Client `json:"-"`
}

// Problems returns every problem with the config, each prefixed with
// prefix (the section's path in the config file); nil means valid.
func (c *Config) Problems(prefix string) []string {
	if c.Interval < 0 {
		return []string{prefix + ".interval: must not be negative"}
	}
	return nil
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = manager.Duration(30 * time.Second)
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 15 * time.Second}
	}
	return c
}

// BudgetPressure is one planned session's budget position.
type BudgetPressure struct {
	Session string `json:"session"`
	// PlanStep/PlanHorizon locate the session inside its finite plan;
	// Pressure is their ratio (0 for horizonless plans).
	PlanStep    int     `json:"plan_step"`
	PlanHorizon int     `json:"plan_horizon,omitempty"`
	Pressure    float64 `json:"pressure,omitempty"`
}

// Report is one periodic status digest.
type Report struct {
	Time time.Time `json:"time"`
	// BundleRevision is the active named-model revision ("" when no
	// bundle has activated).
	BundleRevision string `json:"bundle_revision,omitempty"`
	// BundleModels lists the active revision's model names.
	BundleModels []string `json:"bundle_models,omitempty"`
	Sessions     int      `json:"sessions"`
	Users        int      `json:"users"`
	// Persistence is the same durability digest healthz reports:
	// snapshot staleness is the recovery window.
	Persistence service.PersistenceHealth `json:"persistence"`
	// Budgets lists every planned session's budget pressure, the
	// operator's early warning before refusals start.
	Budgets []BudgetPressure `json:"budgets,omitempty"`
}

// Plugin periodically builds and (optionally) uploads reports.
type Plugin struct {
	reg *service.Registry
	cfg Config

	mu      sync.Mutex
	lastErr string
	last    *Report
	reports int64
}

// NewPlugin creates the status plugin over a registry.
func NewPlugin(reg *service.Registry, cfg Config) *Plugin {
	return &Plugin{reg: reg, cfg: cfg.withDefaults()}
}

// Name implements manager.Plugin.
func (p *Plugin) Name() string { return "status" }

// Status implements manager.Plugin: the latest report is the detail.
func (p *Plugin) Status() manager.Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	detail := map[string]any{"reports": p.reports, "interval": p.cfg.Interval.String()}
	if p.last != nil {
		detail["last_report"] = p.last
	}
	if p.cfg.UploadURL != "" {
		detail["upload_url"] = p.cfg.UploadURL
	}
	return manager.Status{Message: p.lastErr, Detail: detail}
}

// Run implements manager.Plugin. It emits one report immediately (so
// healthz shows data right after boot) and then one per interval.
func (p *Plugin) Run(ctx context.Context) {
	p.report()
	ticker := time.NewTicker(time.Duration(p.cfg.Interval))
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			p.report()
		case <-ctx.Done():
			return
		}
	}
}

// report builds one digest and uploads it when configured.
func (p *Plugin) report() {
	cache := p.reg.ModelCache()
	rep := &Report{
		Time:           time.Now().UTC(),
		BundleRevision: cache.NamedRevision(),
		BundleModels:   cache.NamedModels(),
		Sessions:       p.reg.Len(),
		Users:          p.reg.Users(),
		Persistence:    p.reg.PersistenceHealth(),
	}
	for _, s := range p.reg.List() {
		sum := s.Summary()
		if !sum.HasPlan {
			continue
		}
		bp := BudgetPressure{Session: sum.Name, PlanStep: sum.PlanStep, PlanHorizon: sum.PlanHorizon}
		if sum.PlanHorizon > 0 {
			// PlanStep is the *next* step's index, so pressure hits 1.0
			// exactly when the plan has nothing left to charge.
			bp.Pressure = float64(sum.PlanStep-1) / float64(sum.PlanHorizon)
		}
		rep.Budgets = append(rep.Budgets, bp)
	}
	p.mu.Lock()
	p.last = rep
	p.reports++
	p.mu.Unlock()
	if p.cfg.UploadURL == "" {
		return
	}
	var errStr string
	if err := uploadReport(p.cfg, rep); err != nil {
		errStr = err.Error()
	}
	p.mu.Lock()
	p.lastErr = errStr
	p.mu.Unlock()
}

// uploadReport POSTs one report as JSON.
func uploadReport(cfg Config, rep *Report) error {
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, cfg.UploadURL, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("status: upload to %s returned %s", cfg.UploadURL, resp.Status)
	}
	return nil
}
