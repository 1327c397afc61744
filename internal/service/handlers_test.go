package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/markov"
)

// doJSON runs one request against a fresh recorder and decodes the JSON
// response body into out (which may be nil).
func doJSON(t *testing.T, h http.Handler, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding response %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec
}

// fig7ModelJSON renders the Fig. 7 adversary model as config JSON.
func fig7ModelJSON(t *testing.T) string {
	t.Helper()
	m := ModelConfig{Backward: markov.Fig7Backward(), Forward: markov.Fig7Forward()}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestHandlerValidation(t *testing.T) {
	model := fig7ModelJSON(t)
	valid := `{"name":"s1","domain":2,"users":3,"models":[` + model + `,` + model + `,{}]}`
	tests := []struct {
		name    string
		method  string
		target  string
		body    string
		status  int
		errPart string // substring the error body must contain; "" = no error expected
	}{
		{"health", "GET", "/healthz", "", http.StatusOK, ""},
		{"create ok", "POST", "/v2/sessions", valid, http.StatusCreated, ""},
		{"create duplicate", "POST", "/v2/sessions", valid, http.StatusConflict, "already exists"},
		{"create bad json", "POST", "/v2/sessions", `{"name":`, http.StatusBadRequest, "decoding"},
		{"create unknown field", "POST", "/v2/sessions", `{"name":"x","domain":2,"users":1,"bogus":1}`, http.StatusBadRequest, "bogus"},
		{"create no population", "POST", "/v2/sessions", `{"name":"x","domain":2}`, http.StatusBadRequest, "population"},
		{"create models and cohorts", "POST", "/v2/sessions",
			`{"name":"x","domain":2,"models":[{}],"cohorts":[{"users":1,"model":{}}]}`,
			http.StatusBadRequest, "not both"},
		{"create bad name", "POST", "/v2/sessions", `{"name":"a/b","domain":2,"users":1}`, http.StatusBadRequest, "slash"},
		{"create empty name", "POST", "/v2/sessions", `{"domain":2,"users":1}`, http.StatusBadRequest, "empty"},
		{"create bad noise", "POST", "/v2/sessions", `{"name":"x","domain":2,"users":1,"noise":"gauss"}`, http.StatusBadRequest, "noise"},
		{"create geometric fractional sensitivity", "POST", "/v2/sessions",
			`{"name":"x","domain":2,"users":1,"noise":"geometric","sensitivity":1.5}`,
			http.StatusBadRequest, "integral"},
		{"create bad plan kind", "POST", "/v2/sessions",
			`{"name":"x","domain":2,"users":1,"plan":{"kind":"magic","alpha":1}}`,
			http.StatusBadRequest, "plan kind"},
		{"create quantified without horizon", "POST", "/v2/sessions",
			`{"name":"x","domain":2,"users":1,"plan":{"kind":"quantified","alpha":1}}`,
			http.StatusBadRequest, "horizon"},
		{"create absurd users hits aggregate capacity", "POST", "/v2/sessions",
			`{"name":"x","domain":2,"users":2000000000}`,
			http.StatusServiceUnavailable, "capacity"},
		{"create too many users", "POST", "/v2/sessions",
			`{"name":"x","domain":2,"users":20000000}`,
			http.StatusBadRequest, "limit"},
		{"create too many cohort users", "POST", "/v2/sessions",
			`{"name":"x","domain":2,"cohorts":[{"users":2000000000,"model":{}}]}`,
			http.StatusBadRequest, "limit"},
		{"create huge domain", "POST", "/v2/sessions",
			`{"name":"x","domain":2000000000,"users":1}`,
			http.StatusBadRequest, "limit"},
		{"create domain mismatch", "POST", "/v2/sessions",
			`{"name":"x","domain":3,"models":[` + model + `]}`,
			http.StatusBadRequest, "domain"},
		{"get ok", "GET", "/v2/sessions/s1", "", http.StatusOK, ""},
		{"get missing", "GET", "/v2/sessions/nope", "", http.StatusNotFound, "not found"},
		{"list", "GET", "/v2/sessions", "", http.StatusOK, ""},
		{"step ok", "POST", "/v2/sessions/s1/steps", `[{"values":[0,1,1],"eps":0.5}]`, http.StatusOK, ""},
		{"step missing session", "POST", "/v2/sessions/nope/steps", `[{"values":[0,1,1],"eps":0.5}]`, http.StatusNotFound, "not found"},
		{"step wrong population", "POST", "/v2/sessions/s1/steps", `[{"values":[0],"eps":0.5}]`, http.StatusBadRequest, "values"},
		{"step bad eps", "POST", "/v2/sessions/s1/steps", `[{"values":[0,1,1],"eps":-1}]`, http.StatusBadRequest, "positive"},
		{"step without plan", "POST", "/v2/sessions/s1/steps", `[{"values":[0,1,1]}]`, http.StatusConflict, "no release plan"},
		{"published", "GET", "/v2/sessions/s1/published", "", http.StatusOK, ""},
		{"published one", "GET", "/v2/sessions/s1/published?limit=1", "", http.StatusOK, ""},
		{"published bad cursor", "GET", "/v2/sessions/s1/published?cursor=bogus", "", http.StatusBadRequest, "malformed cursor"},
		{"published out of range", "GET", "/v2/sessions/s1/published?limit=0", "", http.StatusBadRequest, "limit"},
		{"tpl missing user", "GET", "/v2/sessions/s1/tpl", "", http.StatusBadRequest, "user"},
		{"tpl bad user", "GET", "/v2/sessions/s1/tpl?user=99", "", http.StatusBadRequest, "out of range"},
		{"tpl ok", "GET", "/v2/sessions/s1/tpl?user=0", "", http.StatusOK, ""},
		{"wevent bad format", "GET", "/v2/sessions/s1/wevent?w=1&format=xml", "", http.StatusBadRequest, "format"},
		{"wevent missing w", "GET", "/v2/sessions/s1/wevent", "", http.StatusBadRequest, "missing query parameter"},
		{"wevent ok", "GET", "/v2/sessions/s1/wevent?w=1&user=0", "", http.StatusOK, ""},
		{"wevent population", "GET", "/v2/sessions/s1/wevent?w=1", "", http.StatusOK, ""},
		{"report ok", "GET", "/v2/sessions/s1/report", "", http.StatusOK, ""},
		{"delete missing", "DELETE", "/v2/sessions/nope", "", http.StatusNotFound, "not found"},
		{"delete ok", "DELETE", "/v2/sessions/s1", "", http.StatusNoContent, ""},
		{"get after delete", "GET", "/v2/sessions/s1", "", http.StatusNotFound, "not found"},
		{"method not allowed", "PUT", "/v2/sessions/s1", "", http.StatusMethodNotAllowed, ""},
		{"unknown route", "GET", "/v2/nope", "", http.StatusNotFound, ""},
	}

	h := NewAPI().Handler()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec := doJSON(t, h, tc.method, tc.target, tc.body, nil)
			if rec.Code != tc.status {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.target, rec.Code, tc.status, rec.Body.String())
			}
			if tc.errPart != "" && !strings.Contains(rec.Body.String(), tc.errPart) {
				t.Fatalf("%s %s: body %q does not mention %q", tc.method, tc.target, rec.Body.String(), tc.errPart)
			}
		})
	}
}

// TestAggregateCapacity checks that the registry bounds the total
// declared population across sessions, and releases capacity on
// delete.
func TestAggregateCapacity(t *testing.T) {
	reg := NewRegistry()
	reg.capacity = 6 // keep the test allocation-cheap
	for i := 0; i < 3; i++ {
		cfg := &SessionConfig{Name: fmt.Sprintf("s%d", i), Domain: 2, Users: 2}
		if _, err := reg.Create(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Create(&SessionConfig{Name: "overflow", Domain: 2, Users: 1}); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-capacity create: err = %v, want ErrCapacity", err)
	}
	if err := reg.Delete("s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(&SessionConfig{Name: "refill", Domain: 2, Users: 1}); err != nil {
		t.Fatalf("create after delete should succeed: %v", err)
	}
	if got := reg.Users(); got != 5 {
		t.Fatalf("Users() = %d, want 5", got)
	}
}

func TestSessionLifecycle(t *testing.T) {
	h := NewAPI().Handler()
	model := fig7ModelJSON(t)

	var created Summary
	rec := doJSON(t, h, "POST", "/v2/sessions",
		`{"name":"lc","domain":2,"cohorts":[{"users":5,"model":`+model+`},{"users":3,"model":{}}],"plan":{"kind":"upper-bound","alpha":2,"model":`+model+`}}`,
		&created)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	if created.Users != 8 || created.Cohorts != 2 || created.Domain != 2 || !created.HasPlan {
		t.Fatalf("summary %+v: want 8 users, 2 cohorts, domain 2, plan", created)
	}

	// A planned step draws its budget from the plan.
	var batch batchResponse
	rec = doJSON(t, h, "POST", "/v2/sessions/lc/steps", `[{"values":[0,1,0,1,0,1,0,1]}]`, &batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("planned step: %d %s", rec.Code, rec.Body.String())
	}
	if step := batch.Results[0]; !step.Planned || step.T != 1 || step.Eps <= 0 || len(step.Published) != 2 {
		t.Fatalf("planned step response %+v", step)
	}

	// An explicit step reports the requested budget.
	rec = doJSON(t, h, "POST", "/v2/sessions/lc/steps", `[{"values":[0,0,0,0,1,1,1,1],"eps":0.25}]`, &batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("explicit step: %d %s", rec.Code, rec.Body.String())
	}
	if step := batch.Results[0]; step.Planned || step.T != 2 || step.Eps != 0.25 {
		t.Fatalf("explicit step response %+v", step)
	}

	var listed struct {
		Sessions []Summary `json:"sessions"`
	}
	doJSON(t, h, "GET", "/v2/sessions", "", &listed)
	if len(listed.Sessions) != 1 || listed.Sessions[0].T != 2 {
		t.Fatalf("list %+v: want one session at t=2", listed.Sessions)
	}

	var hist struct {
		T     int             `json:"t"`
		Items []publishedItem `json:"items"`
	}
	doJSON(t, h, "GET", "/v2/sessions/lc/published", "", &hist)
	if hist.T != 2 || len(hist.Items) != 2 || len(hist.Items[1].Published) != 2 {
		t.Fatalf("history %+v", hist)
	}
	if hist.Items[1].Eps != 0.25 {
		t.Fatalf("budget at t=2 = %v, want 0.25", hist.Items[1].Eps)
	}
}
