package status

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/markov"
	"repro/internal/plugins/manager"
	"repro/internal/service"
	"repro/internal/stream"
)

func TestReportContents(t *testing.T) {
	reg := service.NewRegistry()
	chain, err := markov.FromRows([][]float64{{0.8, 0.2}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	reg.ModelCache().ActivateNamed("rev1", map[string]stream.AdversaryModel{
		"road": {Backward: chain, Forward: chain},
	})
	s, err := reg.Create(&service.SessionConfig{
		Name:   "planned",
		Domain: 2,
		Users:  2,
		Plan:   &service.PlanConfig{Kind: "quantified", Alpha: 1.0, Horizon: 4, Model: &service.ModelConfig{Ref: "road"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CollectBatch("", []stream.BatchStep{{Values: []int{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(&service.SessionConfig{Name: "plain", Domain: 2, Users: 1}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var uploaded []Report
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rep Report
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		uploaded = append(uploaded, rep)
		mu.Unlock()
	}))
	defer ts.Close()

	p := NewPlugin(reg, Config{Interval: manager.Duration(time.Hour), UploadURL: ts.URL})
	m := startPlugin(t, p)
	defer m.Stop(context.Background())

	// The first report fires immediately on start.
	deadline := time.Now().Add(5 * time.Second)
	for p.Status().Detail["last_report"] == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rep, _ := p.Status().Detail["last_report"].(*Report)
	if rep == nil {
		t.Fatal("no report after start")
	}
	if rep.BundleRevision != "rev1" || len(rep.BundleModels) != 1 || rep.BundleModels[0] != "road" {
		t.Fatalf("bundle block %+v", rep)
	}
	if rep.Sessions != 2 || rep.Users != 3 {
		t.Fatalf("population %+v", rep)
	}
	if rep.Persistence.Mode != "ephemeral" {
		t.Fatalf("persistence %+v", rep.Persistence)
	}
	// Only the planned session reports budget pressure: one of four
	// steps spent.
	if len(rep.Budgets) != 1 {
		t.Fatalf("budgets %+v", rep.Budgets)
	}
	bp := rep.Budgets[0]
	if bp.Session != "planned" || bp.PlanStep != 2 || bp.PlanHorizon != 4 || bp.Pressure != 0.25 {
		t.Fatalf("budget pressure %+v", bp)
	}

	mu.Lock()
	n := len(uploaded)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("%d uploads, want 1", n)
	}
	st := m.StatusAll()["status"]
	if st.State != "running" || st.Detail["reports"].(int64) != 1 {
		t.Fatalf("status %+v", st)
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
