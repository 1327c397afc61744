package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/markov"
	"repro/internal/release"
	"repro/internal/report"
	"repro/internal/stream"
)

// postJSON posts one JSON body over a real client connection.
func postJSON(t *testing.T, client *http.Client, url string, body any, out any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, data, err)
		}
	}
}

// getJSON fetches one JSON response.
func getJSON(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", url, data, err)
	}
}

// getTables fetches a ?format=jsonl endpoint and parses it back through
// report.ParseJSONLines — the round-trip the wire format promises.
func getTables(t *testing.T, client *http.Client, url string) []*report.Table {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("GET %s: content type %q, want %q", url, ct, ndjsonContentType)
	}
	tables, err := report.ParseJSONLines(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: parsing JSON lines: %v", url, err)
	}
	return tables
}

// TestServedMatchesDirectDrive is the end-to-end acceptance scenario:
// a session with per-user Markov models collects 20 steps — 10 with
// explicit budgets, 10 from a quantified plan — through the HTTP API,
// and its report must match the identical scenario driven directly
// through stream.Server. Table responses must parse back through
// report.ParseJSONLines.
func TestServedMatchesDirectDrive(t *testing.T) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	weak, err := pb.Mix(0.5) // a second, weaker correlation class
	if err != nil {
		t.Fatal(err)
	}
	users := []ModelConfig{
		{Backward: pb, Forward: pf},
		{Backward: weak, Forward: pf},
		{Backward: pb},
		{}, // traditional DP adversary
	}

	ts := httptest.NewServer(NewAPI().Handler())
	defer ts.Close()
	client := ts.Client()

	const (
		name        = "acceptance"
		explicitEps = 0.1
		alpha       = 1.0
		horizon     = 20
		steps       = 20
	)
	cfg := SessionConfig{
		Name:   name,
		Domain: pb.N(),
		Models: users,
		Plan:   &PlanConfig{Kind: "quantified", Alpha: alpha, Horizon: horizon, Model: &users[0]},
	}
	var created Summary
	postJSON(t, client, ts.URL+"/v2/sessions", cfg, &created)
	if created.Cohorts != 4 || created.Users != 4 {
		t.Fatalf("summary %+v: want 4 users in 4 cohorts", created)
	}

	base := ts.URL + "/v2/sessions/" + name
	values := [][]int{{0, 1, 0, 1}, {1, 1, 0, 0}, {0, 0, 0, 1}, {1, 0, 1, 0}}
	for i := 0; i < steps; i++ {
		req := map[string]any{"values": values[i%len(values)]}
		if i < steps/2 {
			req["eps"] = explicitEps
		}
		var batch batchResponse
		postJSON(t, client, base+"/steps", []any{req}, &batch)
		if batch.Results[0].T != i+1 {
			t.Fatalf("step %d landed on t=%d", i, batch.Results[0].T)
		}
	}

	// The same scenario, driven directly through the library.
	models := make([]stream.AdversaryModel, len(users))
	for i, m := range users {
		models[i] = stream.AdversaryModel{Backward: m.Backward, Forward: m.Forward}
	}
	direct, err := stream.NewServer(pb.N(), len(models), models, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := release.Quantified(pb, pf, alpha, horizon)
	if err != nil {
		t.Fatal(err)
	}
	direct.SetPlan(plan)
	for i := 0; i < steps; i++ {
		vals := values[i%len(values)]
		if i < steps/2 {
			_, err = direct.Collect(vals, explicitEps)
		} else {
			_, err = direct.CollectPlanned(vals)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Report()
	if err != nil {
		t.Fatal(err)
	}

	var got reportResponse
	getJSON(t, client, base+"/report", &got)
	if got.T != steps {
		t.Fatalf("report T = %d, want %d", got.T, steps)
	}
	if got.EventLevelAlpha != want.EventLevelAlpha {
		t.Errorf("EventLevelAlpha = %v, want %v", got.EventLevelAlpha, want.EventLevelAlpha)
	}
	if got.UserLevel != want.UserLevel {
		t.Errorf("UserLevel = %v, want %v", got.UserLevel, want.UserLevel)
	}
	if got.WorstUser != want.WorstUser || got.NominalEventLevel != want.NominalEventLevel {
		t.Errorf("report %+v, want %+v", got, *want)
	}
	// The wire format is snake_case, owned by the service layer.
	resp, err := client.Get(base + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rawReport, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"t"`, `"event_level_alpha"`, `"worst_user"`, `"user_level"`, `"nominal_event_level"`} {
		if !bytes.Contains(rawReport, []byte(key)) {
			t.Errorf("report body %s missing key %s", rawReport, key)
		}
	}

	// Per-user TPL series through the API match the direct drive.
	for u := range users {
		var page struct {
			User  int       `json:"user"`
			Items []tplItem `json:"items"`
		}
		getJSON(t, client, fmt.Sprintf("%s/tpl?user=%d&limit=%d", base, u, steps), &page)
		wantSeries, err := direct.UserTPLSeries(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Items) != len(wantSeries) {
			t.Fatalf("user %d: series length %d, want %d", u, len(page.Items), len(wantSeries))
		}
		for i := range wantSeries {
			if page.Items[i].TPL != wantSeries[i] {
				t.Errorf("user %d TPL[%d] = %v, want %v", u, i, page.Items[i].TPL, wantSeries[i])
			}
		}
	}

	// JSON-lines table responses round-trip through ParseJSONLines.
	reportTables := getTables(t, client, base+"/report?format=jsonl")
	if len(reportTables) != 1 {
		t.Fatalf("report tables: %d, want 1", len(reportTables))
	}
	if wantTable := want.Table(); reportTables[0].Title != wantTable.Title {
		t.Errorf("report table title %q, want %q", reportTables[0].Title, wantTable.Title)
	}
	if len(reportTables[0].Rows) != 2 {
		t.Fatalf("report table rows: %d, want 2", len(reportTables[0].Rows))
	}
	if cell := reportTables[0].Rows[0][2]; cell != fmt.Sprintf("%.6f", want.EventLevelAlpha) {
		t.Errorf("report table event-level cell %q, want %.6f", cell, want.EventLevelAlpha)
	}

	weventTables := getTables(t, client, base+"/wevent?w=3&format=jsonl")
	wantW, wantWU, err := direct.MaxWEvent(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(weventTables) != 1 || len(weventTables[0].Rows) != 1 {
		t.Fatalf("wevent table shape: %+v", weventTables)
	}
	if row := weventTables[0].Rows[0]; row[1] != strconv.Itoa(wantWU) || row[2] != fmt.Sprintf("%.6f", wantW) {
		t.Errorf("wevent row %v, want user %d leakage %.6f", row, wantWU, wantW)
	}
}

// TestConcurrentSessions hammers the service with concurrent tenants:
// each goroutine creates its own session, steps it, and reads it back
// while others do the same (run under -race in CI).
func TestConcurrentSessions(t *testing.T) {
	ts := httptest.NewServer(NewAPI().Handler())
	defer ts.Close()
	client := ts.Client()
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()

	const tenants = 8
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", g)
			cfg := SessionConfig{
				Name:   name,
				Domain: 2,
				Cohorts: []CohortConfig{
					{Users: 50, Model: ModelConfig{Backward: pb, Forward: pf}},
					{Users: 50, Model: ModelConfig{}},
				},
			}
			postJSON(t, client, ts.URL+"/v2/sessions", cfg, nil)
			base := ts.URL + "/v2/sessions/" + name
			values := make([]int, 100)
			for i := 0; i < 10; i++ {
				postJSON(t, client, base+"/steps", []any{map[string]any{"values": values, "eps": 0.1}}, nil)
				var rep reportResponse
				getJSON(t, client, base+"/report", &rep)
				if rep.T != i+1 {
					t.Errorf("%s: report T = %d, want %d", name, rep.T, i+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var listed struct {
		Sessions []Summary `json:"sessions"`
	}
	getJSON(t, client, ts.URL+"/v2/sessions", &listed)
	if len(listed.Sessions) != tenants {
		t.Fatalf("%d sessions, want %d", len(listed.Sessions), tenants)
	}
	for _, s := range listed.Sessions {
		if s.T != 10 || s.Cohorts != 2 || s.Users != 100 {
			t.Errorf("session %+v: want t=10, 2 cohorts, 100 users", s)
		}
	}
}
