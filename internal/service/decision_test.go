package service

import (
	"errors"
	"net/http"
	"sync"
	"testing"

	"repro/internal/markov"
	"repro/internal/stream"
)

// memSink collects decisions in memory for assertions.
type memSink struct {
	mu   sync.Mutex
	recs []Decision
}

func (m *memSink) Record(d Decision) {
	m.mu.Lock()
	m.recs = append(m.recs, d)
	m.mu.Unlock()
}

func (m *memSink) all() []Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Decision(nil), m.recs...)
}

// TestDecisionRecording drives every decision kind through CollectBatch
// and checks the audit records carry the span, budget, cohort digest
// and classification the log schema promises.
func TestDecisionRecording(t *testing.T) {
	reg := NewRegistry()
	sink := &memSink{}
	reg.SetDecisionSink(sink)
	cfg := persistTestConfig("audited", 11, false)
	// Horizon 5 and the plan attached at creation: the plan index
	// advances with *every* step, so after the three explicit-budget
	// steps below, exactly two planned steps remain.
	cfg.Plan = &PlanConfig{Kind: "quantified", Alpha: 1.0, Horizon: 5}
	s, err := reg.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One explicit-budget step: a "steps" decision.
	if err := collectStep(s, []int{0, 1, 0, 1, 0}, 0.2); err != nil {
		t.Fatal(err)
	}
	recs := sink.all()
	if len(recs) != 1 {
		t.Fatalf("%d decisions after one step, want 1", len(recs))
	}
	d := recs[0]
	if d.Kind != "steps" || d.Session != "audited" || d.FirstT != 1 || d.LastT != 1 || d.Steps != 1 {
		t.Fatalf("steps decision %+v", d)
	}
	if d.EpsSum != 0.2 || d.EpsMax != 0.2 {
		t.Fatalf("steps decision budget %+v", d)
	}
	if len(d.Cohorts) != s.Server().Cohorts() {
		t.Fatalf("%d cohort digests, want %d", len(d.Cohorts), s.Server().Cohorts())
	}
	want, err := s.Server().UserTPL(d.Cohorts[0].FirstUser, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cohorts[0].TPL != want {
		t.Fatalf("cohort digest TPL %v, want %v", d.Cohorts[0].TPL, want)
	}
	if d.Time.IsZero() {
		t.Fatal("steps decision has no timestamp")
	}

	// A keyed batch, then its replay: one "steps" with the key, one
	// "replay".
	e := 0.1
	batch := []stream.BatchStep{{Values: []int{1, 0, 1, 0, 1}, Eps: &e}, {Values: []int{0, 0, 0, 0, 0}, Eps: &e}}
	if _, _, err := s.CollectBatch("k1", batch); err != nil {
		t.Fatal(err)
	}
	if _, replayed, err := s.CollectBatch("k1", batch); err != nil || !replayed {
		t.Fatalf("replay: replayed=%v err=%v", replayed, err)
	}
	recs = sink.all()
	if len(recs) != 3 {
		t.Fatalf("%d decisions, want 3", len(recs))
	}
	if d := recs[1]; d.Kind != "steps" || d.IdemKey != "k1" || d.FirstT != 2 || d.LastT != 3 || d.EpsSum != 0.2 || d.EpsMax != 0.1 {
		t.Fatalf("keyed steps decision %+v", d)
	}
	if d := recs[2]; d.Kind != "replay" || d.IdemKey != "k1" || d.FirstT != 2 || d.LastT != 3 || d.Steps != 2 {
		t.Fatalf("replay decision %+v", d)
	}

	// Key reuse with a different body: a "refusal" with the idempotency
	// code, nothing charged.
	if _, _, err := s.CollectBatch("k1", batch[:1]); err == nil {
		t.Fatal("idempotency conflict accepted")
	}
	// Planned steps past the horizon: plan indices 4 and 5 land, the
	// next is refused with the budget code.
	for i := 0; i < 2; i++ {
		if _, err := collectPlanned(s, []int{0, 1, 0, 1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := collectPlanned(s, []int{0, 1, 0, 1, 0}); err == nil {
		t.Fatal("over-horizon step accepted")
	}
	recs = sink.all()
	if len(recs) != 7 {
		t.Fatalf("%d decisions, want 7", len(recs))
	}
	if d := recs[3]; d.Kind != "refusal" || d.Code != CodeIdempotencyConflict || d.IdemKey != "k1" {
		t.Fatalf("conflict refusal decision %+v", d)
	}
	if d := recs[6]; d.Kind != "refusal" || d.Code != CodeBudgetExhausted || d.Detail == "" {
		t.Fatalf("budget refusal decision %+v", d)
	}

	// Detaching the sink stops recording without touching the session.
	reg.SetDecisionSink(nil)
	if err := collectStep(s, []int{0, 0, 0, 0, 0}, 0.1); err != nil {
		t.Fatal(err)
	}
	if n := len(sink.all()); n != 7 {
		t.Fatalf("%d decisions after detach, want 7", n)
	}
}

// TestModelRefs covers bundle-ref resolution: refs resolve against the
// active named revision, the resolved revision is pinned in the
// summary, and failure modes classify as model_not_found.
func TestModelRefs(t *testing.T) {
	chain, err := markov.FromRows([][]float64{{0.8, 0.2}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()

	// No bundle active: a ref cannot resolve.
	cfg := &SessionConfig{Name: "refs", Domain: 2, Cohorts: []CohortConfig{{Users: 2, Model: ModelConfig{Ref: "road"}}}}
	if _, err := reg.Create(cfg); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("create with no bundle: %v, want ErrModelNotFound", err)
	}
	if status, code := classify(ErrModelNotFound); status != http.StatusConflict || code != CodeModelNotFound {
		t.Fatalf("classify = %d %q", status, code)
	}

	reg.ModelCache().ActivateNamed("revA", map[string]stream.AdversaryModel{
		"road": {Backward: chain, Forward: chain},
	})

	// A missing name under an active revision names the revision.
	bad := &SessionConfig{Name: "refs", Domain: 2, Cohorts: []CohortConfig{{Users: 2, Model: ModelConfig{Ref: "ghost"}}}}
	if _, err := reg.Create(bad); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("create with missing name: %v", err)
	}
	// Ref plus inline chains is rejected.
	mixed := &SessionConfig{Name: "refs", Domain: 2, Models: []ModelConfig{{Ref: "road", Backward: chain}}}
	if _, err := reg.Create(mixed); err == nil {
		t.Fatal("ref+inline model accepted")
	}

	// A client-supplied revision is overwritten by the real one.
	cfg.ModelRevision = "forged"
	s, err := reg.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Summary().ModelRevision; got != "revA" {
		t.Fatalf("summary revision %q, want revA", got)
	}
	// The ref resolved to the bundle's chain: after a second step the
	// forward correlation lifts TPL at t=1 above the bare budget.
	for i := 0; i < 2; i++ {
		if err := collectStep(s, []int{0, 1}, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	tpl, err := s.Server().UserTPL(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tpl <= 0.2 {
		t.Fatalf("resolved model shows no correlation: TPL %v", tpl)
	}
	// Inline-configured sessions report no revision.
	plain, err := reg.Create(&SessionConfig{Name: "plain", Domain: 2, Users: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Summary().ModelRevision; got != "" {
		t.Fatalf("inline session reports revision %q", got)
	}
}

// TestModelRefsRestore pins the restore invariant: refs are resolved at
// creation and the *resolved* config is persisted, so a restore —
// possibly under a different active bundle, or none — rebuilds exactly
// the models the session was created with.
func TestModelRefsRestore(t *testing.T) {
	chain, err := markov.FromRows([][]float64{{0.8, 0.2}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	other, err := markov.FromRows([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r1 := durableRegistry(t, dir, 4)
	r1.ModelCache().ActivateNamed("revA", map[string]stream.AdversaryModel{
		"road": {Backward: chain, Forward: chain},
	})
	cfg := &SessionConfig{
		Name:    "refs",
		Domain:  2,
		Cohorts: []CohortConfig{{Users: 2, Model: ModelConfig{Ref: "road"}}},
		Seed:    9,
		Plan:    &PlanConfig{Kind: "upper-bound", Alpha: 2.0, Model: &ModelConfig{Ref: "road"}},
	}
	s1, err := r1.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := collectPlanned(s1, []int{i % 2, (i + 1) % 2}); err != nil {
			t.Fatal(err)
		}
	}

	// Restore under a *different* active bundle: the session must come
	// back with revA's chains and revision, not revB's.
	r2 := durableRegistry(t, dir, 4)
	r2.ModelCache().ActivateNamed("revB", map[string]stream.AdversaryModel{
		"road": {Backward: other, Forward: other},
	})
	restored, failed := r2.RestoreAll()
	if len(failed) > 0 || len(restored) != 1 {
		t.Fatalf("restored %v failed %v", restored, failed)
	}
	s2, err := r2.Get("refs")
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Summary().ModelRevision; got != "revA" {
		t.Fatalf("restored revision %q, want revA", got)
	}
	mustMatchSessions(t, s1, s2)
	// And the restored session keeps accounting with revA's model: the
	// next planned step matches on both sides bit for bit.
	pa, err := collectPlanned(s1, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := collectPlanned(s2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("post-restore step diverged: %v vs %v", pa, pb)
		}
	}
}
