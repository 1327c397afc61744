package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/enginecache"
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/version"
)

// maxBodyBytes caps a request body. It must admit a full step of the
// largest legal session: 10M users of up-to-7-digit values is ~80 MB
// of JSON, so 256 MiB leaves headroom while still bounding a hostile
// payload.
const maxBodyBytes = 256 << 20

// ndjsonContentType is the media type of NDJSON request and response
// bodies (streamed report tables, batched step ingestion).
const ndjsonContentType = "application/x-ndjson"

// API is the HTTP face of a session registry: the /v2 wire contract
// (batched step ingestion, idempotency keys, cursor pagination,
// problem+json errors, SSE watch — v2.go) over the Registry/Session
// methods. Go callers use tpl/client rather than raw HTTP.
type API struct {
	reg     *Registry
	started time.Time

	// watchStop, when closed, ends every open SSE watch stream (nil is
	// legal and means "never"). StopWatchers closes it; the serving
	// layer registers that on graceful shutdown so long-lived watch
	// connections cannot stall http.Server.Shutdown.
	watchStop     chan struct{}
	watchStopOnce sync.Once

	// pluginHealth, when set, contributes the healthz "plugins" block.
	// The seam is a plain closure so the service layer never imports the
	// plugin packages; the plugin manager installs its StatusAll here.
	pluginMu     sync.RWMutex
	pluginHealth func() any
}

// NewAPI creates an API over a fresh registry.
func NewAPI() *API {
	api := &API{reg: NewRegistry(), watchStop: make(chan struct{})}
	api.started = api.reg.now()
	return api
}

// StopWatchers ends every open watch stream. Idempotent; new watch
// requests after it return immediately.
func (a *API) StopWatchers() {
	a.watchStopOnce.Do(func() {
		if a.watchStop != nil {
			close(a.watchStop)
		}
	})
}

// Registry exposes the session store (for embedding callers and tests).
func (a *API) Registry() *Registry { return a.reg }

// Handler builds the route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.health)

	// The wire contract (v2.go).
	mux.HandleFunc("GET /v2/sessions", a.listSessions)
	mux.HandleFunc("POST /v2/sessions", a.createSession)
	mux.HandleFunc("GET /v2/sessions/{name}", a.getSession)
	mux.HandleFunc("DELETE /v2/sessions/{name}", a.deleteSession)
	mux.HandleFunc("POST /v2/sessions/{name}/steps", a.postSteps)
	mux.HandleFunc("POST /v2/sessions/{name}/snapshot", a.postSnapshot)
	mux.HandleFunc("GET /v2/sessions/{name}/published", a.getPublished)
	mux.HandleFunc("GET /v2/sessions/{name}/tpl", a.getTPL)
	mux.HandleFunc("GET /v2/sessions/{name}/wevent", a.getWEvent)
	mux.HandleFunc("GET /v2/sessions/{name}/report", a.getReport)
	mux.HandleFunc("GET /v2/sessions/{name}/watch", a.watchSession)

	// Cluster plane (migrate.go): source-driven session hand-off. The
	// literal "import" segment wins over {name} patterns by ServeMux
	// precedence, so "import" is not a reachable session name here.
	mux.HandleFunc("POST /v2/sessions/{name}/migrate", a.postMigrate)
	mux.HandleFunc("POST /v2/sessions/import", a.importSession)
	return mux
}

// migrateRequest is the POST /v2/sessions/{name}/migrate body.
type migrateRequest struct {
	// Target is the receiving shard's base URL.
	Target string `json:"target"`
}

// postMigrate hands one session off to another shard: snapshot here,
// restore there, tombstone + 421 redirects here afterwards.
func (a *API) postMigrate(w http.ResponseWriter, r *http.Request) {
	var req migrateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")
	location, err := a.reg.Migrate(r.Context(), name, req.Target)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "location": location})
}

// importSession receives a migrating session's state (the snapshot
// envelope, pushed by the source's Migrate) and registers it here.
func (a *API) importSession(w http.ResponseWriter, r *http.Request) {
	version, body, err := persist.DecodeEnvelope(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, fmt.Errorf("service: decoding import envelope: %w", err))
		return
	}
	s, err := a.reg.ImportSession(version, body)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Summary())
}

// writeBody emits a response body as JSON after headers are settled.
// The Content-Type must already be set (writeJSON and writeProblem do).
func writeBody(w http.ResponseWriter, status int, v any) {
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	writeBody(w, status, v)
}

// session resolves the {name} path value, writing the 404 itself.
func (a *API) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	s, err := a.reg.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	return s, true
}

// reportFormats are the ?format= values the report-shaped endpoints
// (tpl, wevent, report) offer.
var reportFormats = []string{"json", "jsonl"}

// wantJSONLines reports whether the request asked for the report
// JSON-lines wire format. An unknown format is rejected with an
// unsupported_format problem listing the supported values.
func wantJSONLines(w http.ResponseWriter, r *http.Request) (jsonl, ok bool) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		return false, true
	case "jsonl":
		return true, true
	default:
		p := newProblem(http.StatusBadRequest, CodeUnsupportedFormat,
			fmt.Sprintf("service: unknown format %q (want json or jsonl)", f))
		p.Supported = reportFormats
		writeProblem(w, p)
		return false, false
	}
}

// renderTable streams one report table as JSON lines.
func renderTable(w http.ResponseWriter, t *report.Table) {
	w.Header().Set("Content-Type", ndjsonContentType)
	_ = t.JSONLines(w)
}

// intQuery parses a required integer query parameter.
func intQuery(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("service: missing query parameter %q", key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("service: parameter %q: %w", key, err)
	}
	return v, nil
}

// healthResponse is the GET /healthz body: enough for an operator to
// see at a glance that the process is alive, what build it runs, how
// many tenants it carries, and whether their accounting state is
// durably persisted (and how stale the persistence is).
type healthResponse struct {
	Status        string            `json:"status"`
	Version       string            `json:"version"`
	Sessions      int               `json:"sessions"`
	Users         int               `json:"users"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Persistence   PersistenceHealth `json:"persistence"`
	// EngineCache reports the on-disk compiled-engine cache counters
	// (absent in memory-only mode): warm-start hit rate, cumulative
	// load/write time, evictions, and directory footprint.
	EngineCache *enginecache.Stats `json:"engine_cache,omitempty"`
	// Plugins reports the plugin manager's per-plugin status (absent
	// when no manager is attached — see SetPluginHealth).
	Plugins any `json:"plugins,omitempty"`
}

// SetPluginHealth installs (or, with nil, removes) the provider of the
// healthz "plugins" block. Safe to call while serving.
func (a *API) SetPluginHealth(f func() any) {
	a.pluginMu.Lock()
	a.pluginHealth = f
	a.pluginMu.Unlock()
}

func (a *API) health(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:        "ok",
		Version:       version.String(),
		Sessions:      a.reg.Len(),
		Users:         a.reg.Users(),
		UptimeSeconds: a.reg.now().Sub(a.started).Seconds(),
		Persistence:   a.reg.PersistenceHealth(),
	}
	if ec := a.reg.EngineCache(); ec != nil {
		st := ec.Stats()
		resp.EngineCache = &st
	}
	a.pluginMu.RLock()
	ph := a.pluginHealth
	a.pluginMu.RUnlock()
	if ph != nil {
		resp.Plugins = ph()
	}
	writeJSON(w, http.StatusOK, resp)
}

// postSnapshot forces an immediate durable snapshot of one session and
// reports the resulting persistence metadata. 409 in ephemeral mode.
func (a *API) postSnapshot(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	info, err := s.SnapshotNow()
	if err != nil {
		if errors.Is(err, ErrNoStore) {
			writeError(w, err)
		} else {
			writeErrorStatus(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": s.Name(), "t": s.Server().T(), "persistence": info})
}

func (a *API) listSessions(w http.ResponseWriter, r *http.Request) {
	sessions := a.reg.List()
	out := make([]Summary, len(sessions))
	for i, s := range sessions {
		out[i] = s.Summary()
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (a *API) createSession(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if err := decodeBody(w, r, &cfg); err != nil {
		writeError(w, err)
		return
	}
	s, err := a.reg.Create(&cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Summary())
}

// decodeBody reads one JSON value, rejecting trailing garbage and
// unknown fields (a typoed config key should fail loudly, not silently
// default).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: decoding request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("service: trailing data after request body")
	}
	return nil
}

func (a *API) getSession(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.Summary())
}

func (a *API) deleteSession(w http.ResponseWriter, r *http.Request) {
	if err := a.reg.Delete(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// stepResponse reports the step a collection landed on (one element of
// the batch response).
type stepResponse struct {
	T         int       `json:"t"`
	Eps       float64   `json:"eps"`
	Planned   bool      `json:"planned"`
	Published []float64 `json:"published"`
}

func (a *API) getWEvent(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	jsonl, ok := wantJSONLines(w, r)
	if !ok {
		return
	}
	wWin, err := intQuery(r, "w")
	if err != nil {
		writeError(w, err)
		return
	}
	srv := s.Server()
	var (
		leak float64
		user int
	)
	if raw := r.URL.Query().Get("user"); raw != "" {
		if user, err = intQuery(r, "user"); err == nil {
			leak, err = srv.WEvent(user, wWin)
		}
	} else {
		leak, user, err = srv.MaxWEvent(wWin)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if !jsonl {
		writeJSON(w, http.StatusOK, map[string]any{"w": wWin, "user": user, "leakage": leak})
		return
	}
	tb := &report.Table{
		Title:  fmt.Sprintf("%d-event leakage (session %s)", wWin, s.Name()),
		Header: []string{"w", "user", "leakage"},
	}
	tb.AddRow(strconv.Itoa(wWin), strconv.Itoa(user), fmt.Sprintf("%.6f", leak))
	renderTable(w, tb)
}

// reportResponse is the wire form of stream.Report: a service-owned
// DTO so the public API keeps its snake_case convention and internal
// field renames cannot silently change the wire format.
type reportResponse struct {
	T                 int     `json:"t"`
	EventLevelAlpha   float64 `json:"event_level_alpha"`
	WorstUser         int     `json:"worst_user"`
	UserLevel         float64 `json:"user_level"`
	NominalEventLevel float64 `json:"nominal_event_level"`
}

func (a *API) getReport(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	jsonl, ok := wantJSONLines(w, r)
	if !ok {
		return
	}
	rep, err := s.Server().Report()
	if err != nil {
		writeErrorStatus(w, http.StatusInternalServerError, err)
		return
	}
	if !jsonl {
		writeJSON(w, http.StatusOK, reportResponse{
			T:                 rep.T,
			EventLevelAlpha:   rep.EventLevelAlpha,
			WorstUser:         rep.WorstUser,
			UserLevel:         rep.UserLevel,
			NominalEventLevel: rep.NominalEventLevel,
		})
		return
	}
	renderTable(w, rep.Table())
}
