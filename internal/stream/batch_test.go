package stream

import (
	"errors"
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/release"
)

// batchTestServer builds a small two-cohort server with a deterministic
// seed so noise streams can be compared bit for bit.
func batchTestServer(t *testing.T, seed int64) *Server {
	t.Helper()
	chain, err := markov.FromRows([][]float64{{0.8, 0.2}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	models := []AdversaryModel{
		{Backward: chain, Forward: chain},
		{Backward: chain, Forward: chain},
		{}, {}, {},
	}
	srv, err := NewServer(2, 5, models, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetNoiseSeed(seed)
	return srv
}

func eqF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCollectBatchMatchesSequential drives the same workload through
// CollectBatch and through per-step Collect on identically seeded
// servers: every published histogram, budget, and leakage answer must
// be bit-identical — batching is transport, not semantics.
func TestCollectBatchMatchesSequential(t *testing.T) {
	const steps = 12
	values := func(i int) []int {
		v := make([]int, 5)
		for u := range v {
			v[u] = (i*3 + u) % 2
		}
		return v
	}
	eps := func(i int) float64 { return 0.1 + 0.02*float64(i%4) }

	batched := batchTestServer(t, 99)
	var batch []BatchStep
	for i := 0; i < steps; i++ {
		e := eps(i)
		batch = append(batch, BatchStep{Values: values(i), Eps: &e})
	}
	results, err := batched.CollectBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != steps {
		t.Fatalf("batch returned %d results, want %d", len(results), steps)
	}

	sequential := batchTestServer(t, 99)
	for i := 0; i < steps; i++ {
		noisy, err := sequential.Collect(values(i), eps(i))
		if err != nil {
			t.Fatal(err)
		}
		r := results[i]
		if r.T != i+1 || r.Eps != eps(i) || r.Planned {
			t.Fatalf("result %d = %+v", i, r)
		}
		if !eqF64(noisy, r.Published) {
			t.Fatalf("step %d: batch published %v, sequential %v", i+1, r.Published, noisy)
		}
	}
	for u := 0; u < 5; u++ {
		a, err := batched.UserTPLSeries(u)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sequential.UserTPLSeries(u)
		if err != nil {
			t.Fatal(err)
		}
		if !eqF64(a, b) {
			t.Fatalf("user %d TPL series diverge: %v vs %v", u, a, b)
		}
	}
	if batched.NoiseState() != sequential.NoiseState() {
		t.Fatalf("noise positions diverge: %+v vs %+v", batched.NoiseState(), sequential.NoiseState())
	}
}

// TestCollectBatchCountsEquivalent checks the pre-aggregated wire
// shape: a counts step must account and publish exactly as the values
// step it summarizes.
func TestCollectBatchCountsEquivalent(t *testing.T) {
	byValues := batchTestServer(t, 7)
	byCounts := batchTestServer(t, 7)
	values := []int{0, 1, 1, 0, 1}
	counts := []int{2, 3}
	e := 0.2
	rv, err := byValues.CollectBatch([]BatchStep{{Values: values, Eps: &e}})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := byCounts.CollectBatch([]BatchStep{{Counts: counts, Eps: &e}})
	if err != nil {
		t.Fatal(err)
	}
	if !eqF64(rv[0].Published, rc[0].Published) {
		t.Fatalf("published diverge: %v vs %v", rv[0].Published, rc[0].Published)
	}
}

// TestCollectBatchAtomic puts the invalid step in the middle: the whole
// batch must be rejected with no step published and no leakage accrued.
func TestCollectBatchAtomic(t *testing.T) {
	srv := batchTestServer(t, 1)
	good := 0.1
	bad := -1.0
	cases := []struct {
		name  string
		steps []BatchStep
	}{
		{"bad eps", []BatchStep{
			{Values: []int{0, 0, 0, 0, 0}, Eps: &good},
			{Values: []int{0, 0, 0, 0, 0}, Eps: &bad},
		}},
		{"wrong population", []BatchStep{
			{Values: []int{0, 0, 0, 0, 0}, Eps: &good},
			{Values: []int{0}, Eps: &good},
		}},
		{"value out of domain", []BatchStep{
			{Values: []int{0, 0, 0, 0, 0}, Eps: &good},
			{Values: []int{0, 0, 0, 0, 9}, Eps: &good},
		}},
		{"both values and counts", []BatchStep{
			{Values: []int{0, 0, 0, 0, 0}, Counts: []int{5, 0}, Eps: &good},
		}},
		{"neither values nor counts", []BatchStep{
			{Eps: &good},
		}},
		{"counts wrong sum", []BatchStep{
			{Counts: []int{1, 1}, Eps: &good},
		}},
		{"counts negative", []BatchStep{
			{Counts: []int{6, -1}, Eps: &good},
		}},
		{"planned without plan", []BatchStep{
			{Values: []int{0, 0, 0, 0, 0}, Eps: &good},
			{Values: []int{0, 0, 0, 0, 0}},
		}},
		{"empty", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.NoiseState()
			if _, err := srv.CollectBatch(tc.steps); err == nil {
				t.Fatal("batch accepted")
			}
			if srv.T() != 0 {
				t.Fatalf("rejected batch advanced the server to t=%d", srv.T())
			}
			if srv.NoiseState() != before {
				t.Fatal("rejected batch consumed noise draws")
			}
		})
	}
}

// TestCollectBatchPlanMix attaches a finite quantified plan and mixes
// explicit and planned steps in one batch: planned steps must draw the
// same budgets the equivalent CollectPlanned sequence would, and a
// batch reaching past the horizon must be rejected whole.
func TestCollectBatchPlanMix(t *testing.T) {
	chain, err := markov.FromRows([][]float64{{0.8, 0.2}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	newPlanned := func() *Server {
		srv := batchTestServer(t, 5)
		plan, err := release.Quantified(chain, chain, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetPlan(plan)
		return srv
	}
	values := []int{0, 1, 0, 1, 0}
	e := 0.05

	batched := newPlanned()
	results, err := batched.CollectBatch([]BatchStep{
		{Values: values},
		{Values: values, Eps: &e},
		{Values: values},
		{Values: values},
	})
	if err != nil {
		t.Fatal(err)
	}
	sequential := newPlanned()
	for i := 0; i < 4; i++ {
		var err error
		if i == 1 {
			_, err = sequential.Collect(values, e)
		} else {
			_, err = sequential.CollectPlanned(values)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	wantBudgets, _ := publishedAll(t, sequential)
	for i, r := range results {
		if r.Eps != wantBudgets[i] {
			t.Fatalf("step %d: batch eps %v, sequential %v", i+1, r.Eps, wantBudgets[i])
		}
		if wantPlanned := i != 1; r.Planned != wantPlanned {
			t.Fatalf("step %d: planned = %v, want %v", i+1, r.Planned, wantPlanned)
		}
	}

	// 4 steps are in; the plan (horizon 6, attached at t=0) has 2 left.
	// A 3-planned-step batch must fail whole on the horizon.
	if _, err := batched.CollectBatch([]BatchStep{{Values: values}, {Values: values}, {Values: values}}); !errors.Is(err, release.ErrHorizonExceeded) {
		t.Fatalf("past-horizon batch: err = %v, want ErrHorizonExceeded", err)
	}
	if batched.T() != 4 {
		t.Fatalf("failed batch advanced server to t=%d, want 4", batched.T())
	}
}

// TestLeakageAt checks the watch digest against first principles:
// TPL = BPL + FPL - eps at the worst cohort, and agreement with
// Report's event-level alpha at the final step's running maximum.
func TestLeakageAt(t *testing.T) {
	srv := batchTestServer(t, 3)
	e := 0.1
	var batch []BatchStep
	for i := 0; i < 8; i++ {
		batch = append(batch, BatchStep{Values: []int{0, 1, 0, 1, 0}, Eps: &e})
	}
	if _, err := srv.CollectBatch(batch); err != nil {
		t.Fatal(err)
	}
	worst := math.Inf(-1)
	for tt := 1; tt <= 8; tt++ {
		p, err := srv.LeakageAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		if p.T != tt || p.Eps != e {
			t.Fatalf("point %+v", p)
		}
		if got := p.BPL + p.FPL - p.Eps; math.Abs(got-p.TPL) > 1e-12 {
			t.Fatalf("t=%d: TPL %v != BPL+FPL-eps %v", tt, p.TPL, got)
		}
		want, err := srv.UserTPL(p.WorstUser, tt)
		if err != nil {
			t.Fatal(err)
		}
		if p.TPL != want {
			t.Fatalf("t=%d: digest TPL %v != worst user's TPL %v", tt, p.TPL, want)
		}
		if p.TPL > worst {
			worst = p.TPL
		}
	}
	rep, err := srv.Report()
	if err != nil {
		t.Fatal(err)
	}
	if worst != rep.EventLevelAlpha {
		t.Fatalf("running max %v != report alpha %v", worst, rep.EventLevelAlpha)
	}
	if _, err := srv.LeakageAt(0); err == nil {
		t.Fatal("LeakageAt(0) accepted")
	}
	if _, err := srv.LeakageAt(9); err == nil {
		t.Fatal("LeakageAt(9) accepted")
	}
}

// TestCohortLeakages checks the per-cohort digest (the decision-log
// payload) against direct per-user queries.
func TestCohortLeakages(t *testing.T) {
	srv := batchTestServer(t, 5)
	e := 0.1
	var batch []BatchStep
	for i := 0; i < 4; i++ {
		batch = append(batch, BatchStep{Values: []int{0, 1, 0, 1, 0}, Eps: &e})
	}
	if _, err := srv.CollectBatch(batch); err != nil {
		t.Fatal(err)
	}
	leaks, err := srv.CohortLeakages(4)
	if err != nil {
		t.Fatal(err)
	}
	// batchTestServer's five users share two distinct models, so the
	// server folds them into two cohorts.
	if len(leaks) != 2 {
		t.Fatalf("%d cohorts, want 2", len(leaks))
	}
	for i, l := range leaks {
		if l.Cohort != i {
			t.Fatalf("cohort %d labelled %d", i, l.Cohort)
		}
		want, err := srv.UserTPL(l.FirstUser, 4)
		if err != nil {
			t.Fatal(err)
		}
		if l.TPL != want {
			t.Fatalf("cohort %d: TPL %v != user %d's %v", i, l.TPL, l.FirstUser, want)
		}
		if got := l.BPL + l.FPL - e; math.Abs(got-l.TPL) > 1e-12 {
			t.Fatalf("cohort %d: TPL %v != BPL+FPL-eps %v", i, l.TPL, got)
		}
	}
	if _, err := srv.CohortLeakages(0); err == nil {
		t.Fatal("CohortLeakages(0) accepted")
	}
	if _, err := srv.CohortLeakages(5); err == nil {
		t.Fatal("CohortLeakages(5) accepted")
	}
}

// TestUserTPLRange checks pagination slices against the full series.
func TestUserTPLRange(t *testing.T) {
	srv := batchTestServer(t, 4)
	e := 0.15
	var batch []BatchStep
	for i := 0; i < 10; i++ {
		batch = append(batch, BatchStep{Values: []int{1, 0, 1, 0, 1}, Eps: &e})
	}
	if _, err := srv.CollectBatch(batch); err != nil {
		t.Fatal(err)
	}
	full, err := srv.UserTPLSeries(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]int{{1, 10}, {1, 1}, {4, 7}, {10, 10}} {
		got, err := srv.UserTPLRange(0, rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		if !eqF64(got, full[rg[0]-1:rg[1]]) {
			t.Fatalf("range %v: %v, want %v", rg, got, full[rg[0]-1:rg[1]])
		}
	}
	for _, rg := range [][2]int{{0, 3}, {5, 11}, {7, 6}} {
		if _, err := srv.UserTPLRange(0, rg[0], rg[1]); err == nil {
			t.Fatalf("range %v accepted", rg)
		}
	}
	if _, err := srv.UserTPLRange(99, 1, 2); err == nil {
		t.Fatal("bad user accepted")
	}
}
