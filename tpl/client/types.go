package client

import "time"

// Wire types. The SDK owns its DTOs (rather than exposing internal
// packages) so the client API is importable from anywhere; the JSON
// shapes are the service's wire contract, conformance-tested against
// it in this package's tests.

// Chain is a row-stochastic transition matrix in the service's JSON
// encoding.
type Chain struct {
	Rows [][]float64 `json:"rows"`
}

// Model declares one adversary's temporal correlations; either chain
// may be absent (both absent = the traditional DP adversary).
// Alternatively Ref names a model from the server's active bundle
// (management plane) instead of inlining chains; a ref is resolved
// once, at session creation, against the bundle revision active at
// that moment — later bundle activations never rebind the session.
type Model struct {
	Backward *Chain `json:"backward,omitempty"`
	Forward  *Chain `json:"forward,omitempty"`
	Ref      string `json:"ref,omitempty"`
}

// Cohort declares a block of users sharing one adversary model.
type Cohort struct {
	Users int   `json:"users"`
	Model Model `json:"model"`
}

// PlanSpec attaches a release plan at session creation. Kind is
// "upper-bound", "quantified" (needs Horizon) or "w-event" (needs W).
type PlanSpec struct {
	Kind    string  `json:"kind"`
	Alpha   float64 `json:"alpha"`
	Horizon int     `json:"horizon,omitempty"`
	W       int     `json:"w,omitempty"`
	Model   *Model  `json:"model,omitempty"`
}

// SessionConfig is the create-session request body. Declare the
// population exactly one way: Cohorts (recommended at scale), Models
// (one per user), or bare Users (everyone a traditional DP adversary).
type SessionConfig struct {
	Name        string    `json:"name"`
	Domain      int       `json:"domain"`
	Users       int       `json:"users,omitempty"`
	Models      []Model   `json:"models,omitempty"`
	Cohorts     []Cohort  `json:"cohorts,omitempty"`
	Noise       string    `json:"noise,omitempty"`
	Sensitivity float64   `json:"sensitivity,omitempty"`
	Seed        int64     `json:"seed,omitempty"`
	Plan        *PlanSpec `json:"plan,omitempty"`
}

// PersistInfo is the session summary's durability digest (absent in
// ephemeral mode).
type PersistInfo struct {
	LastSnapshotT   int       `json:"last_snapshot_t"`
	LastSnapshotAt  time.Time `json:"last_snapshot_at"`
	JournalRecords  int       `json:"journal_records"`
	NoiseProvenance string    `json:"noise_provenance"`
	Error           string    `json:"error,omitempty"`
}

// Summary is the service's session digest.
type Summary struct {
	Name        string  `json:"name"`
	Domain      int     `json:"domain"`
	Users       int     `json:"users"`
	Cohorts     int     `json:"cohorts"`
	T           int     `json:"t"`
	Noise       string  `json:"noise"`
	Sensitivity float64 `json:"sensitivity"`
	HasPlan     bool    `json:"has_plan"`
	PlanStep    int     `json:"plan_step,omitempty"`
	PlanHorizon int     `json:"plan_horizon,omitempty"`
	// ModelRevision is the bundle revision the session's model refs
	// resolved against at creation ("" when every model was inline).
	ModelRevision string       `json:"model_revision,omitempty"`
	Created       time.Time    `json:"created"`
	Persistence   *PersistInfo `json:"persistence,omitempty"`
}

// Step is one time step of a batch: per-user Values or a pre-
// aggregated Counts histogram (the compact shape at scale), with an
// optional explicit budget (nil = draw from the session's plan).
type Step struct {
	Values []int    `json:"values,omitempty"`
	Counts []int    `json:"counts,omitempty"`
	Eps    *float64 `json:"eps,omitempty"`
}

// Eps is a convenience for Step literals: Eps(0.1) returns &0.1.
func Eps(v float64) *float64 { return &v }

// StepResult reports one landed step.
type StepResult struct {
	T         int       `json:"t"`
	Eps       float64   `json:"eps"`
	Planned   bool      `json:"planned"`
	Published []float64 `json:"published"`
}

// BatchResult is the batch-ingestion response. Replayed means the
// server answered from its idempotency memory — the batch had already
// been applied by an earlier attempt.
type BatchResult struct {
	Results  []StepResult `json:"results"`
	Count    int          `json:"count"`
	FirstT   int          `json:"first_t"`
	LastT    int          `json:"last_t"`
	Replayed bool         `json:"replayed,omitempty"`
}

// Report is the Definition-8 guarantee summary.
type Report struct {
	T                 int     `json:"t"`
	EventLevelAlpha   float64 `json:"event_level_alpha"`
	WorstUser         int     `json:"worst_user"`
	UserLevel         float64 `json:"user_level"`
	NominalEventLevel float64 `json:"nominal_event_level"`
}

// PersistenceHealth is the healthz durability block.
type PersistenceHealth struct {
	Mode                   string   `json:"mode"`
	StateDir               string   `json:"state_dir,omitempty"`
	SnapshotEvery          int      `json:"snapshot_every,omitempty"` // minimum steps between compactions
	LastSnapshotAgeSeconds *float64 `json:"last_snapshot_age_seconds,omitempty"`
	SessionsWithErrors     int      `json:"sessions_with_errors,omitempty"`
}

// EngineCacheHealth is the healthz engine_cache block: the on-disk
// compiled-engine cache's counters. Present only when the server runs
// with -engine-cache-dir.
type EngineCacheHealth struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Loads     int64 `json:"loads"`
	LoadNs    int64 `json:"load_ns"`
	Stores    int64 `json:"stores"`
	WriteNs   int64 `json:"write_ns"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// PluginStatus is one management-plane plugin's healthz block.
type PluginStatus struct {
	State   string         `json:"state"`
	Message string         `json:"message,omitempty"`
	Detail  map[string]any `json:"detail,omitempty"`
}

// Health is the GET /healthz response. Plugins is present only when
// the server runs with a management-plane config.
type Health struct {
	Status        string                  `json:"status"`
	Version       string                  `json:"version"`
	Sessions      int                     `json:"sessions"`
	Users         int                     `json:"users"`
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Persistence   PersistenceHealth       `json:"persistence"`
	EngineCache   *EngineCacheHealth      `json:"engine_cache,omitempty"`
	Plugins       map[string]PluginStatus `json:"plugins,omitempty"`
}

// PublishedItem is one step of the paginated release history.
type PublishedItem struct {
	T         int       `json:"t"`
	Eps       float64   `json:"eps"`
	Published []float64 `json:"published"`
}

// PublishedPage is one page of GET /v2/.../published. NextCursor is
// empty on the last page.
type PublishedPage struct {
	T          int             `json:"t"`
	Items      []PublishedItem `json:"items"`
	NextCursor string          `json:"next_cursor,omitempty"`
}

// TPLItem is one point of the paginated TPL series.
type TPLItem struct {
	T   int     `json:"t"`
	TPL float64 `json:"tpl"`
}

// TPLPage is one page of GET /v2/.../tpl.
type TPLPage struct {
	User       int       `json:"user"`
	T          int       `json:"t"`
	Items      []TPLItem `json:"items"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

// WEventResult is the w-window leakage answer.
type WEventResult struct {
	W       int     `json:"w"`
	User    int     `json:"user"`
	Leakage float64 `json:"leakage"`
}

// SnapshotInfo is the force-snapshot response.
type SnapshotInfo struct {
	Name        string      `json:"name"`
	T           int         `json:"t"`
	Persistence PersistInfo `json:"persistence"`
}

// TopologyShard is one shard of the cluster topology document.
type TopologyShard struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Topology is the GET /v2/topology response: the versioned placement
// document mapping sessions to shards (consistent hashing over
// RingSize slots, plus explicit per-session overrides from
// migrations). Version increases on every observable change.
type Topology struct {
	Version   int               `json:"version"`
	RingSize  int               `json:"ring_size"`
	Shards    []TopologyShard   `json:"shards"`
	Overrides map[string]string `json:"overrides,omitempty"`
}

// WatchEvent is one SSE "step" frame: the population-worst leakage at
// a just-published step. Planned is advisory and live-only — frames
// replayed from history (Watch from >= 0, or a reconnect) report it
// false because history does not retain which budgets the plan
// charged.
type WatchEvent struct {
	T         int     `json:"t"`
	Eps       float64 `json:"eps"`
	Planned   bool    `json:"planned"`
	TPL       float64 `json:"tpl"`
	BPL       float64 `json:"bpl"`
	FPL       float64 `json:"fpl"`
	WorstUser int     `json:"worst_user"`
}
