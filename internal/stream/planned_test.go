package stream

import (
	"errors"
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/release"
)

func plannedServer(t *testing.T) (*Server, *markov.Chain, *markov.Chain) {
	t.Helper()
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	s, err := NewServer(2, 2, []AdversaryModel{
		{Backward: pb, Forward: pf},
		{},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, pb, pf
}

func TestCollectPlannedUsesPlanBudgets(t *testing.T) {
	s, pb, pf := plannedServer(t)
	plan, err := release.Quantified(pb, pf, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlan(plan)
	for i := 0; i < 4; i++ {
		if _, err := s.CollectPlanned([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := plan.Budgets(4)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := publishedAll(t, s)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("step %d: spent %v, plan says %v", i+1, got[i], want[i])
		}
	}
	// The correlated user's leakage equals the plan's target at every
	// point (Algorithm 3 exactness, observed through the server).
	for tm := 1; tm <= 4; tm++ {
		v, err := s.UserTPL(0, tm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("t=%d: user TPL %v, want 1", tm, v)
		}
	}
}

// TestPlanHorizon checks the budget-pressure signal the status plugin
// reports: 0 without a plan, the finite horizon with one.
func TestPlanHorizon(t *testing.T) {
	s, pb, pf := plannedServer(t)
	if h := s.PlanHorizon(); h != 0 {
		t.Fatalf("horizon %d with no plan, want 0", h)
	}
	plan, err := release.Quantified(pb, pf, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlan(plan)
	if h := s.PlanHorizon(); h != 4 {
		t.Fatalf("horizon %d, want 4", h)
	}
	s.SetPlan(nil)
	if h := s.PlanHorizon(); h != 0 {
		t.Fatalf("horizon %d after detach, want 0", h)
	}
}

func TestCollectPlannedHorizonExhaustion(t *testing.T) {
	s, pb, pf := plannedServer(t)
	plan, err := release.Quantified(pb, pf, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlan(plan)
	// A rejected step draws no plan budget.
	if _, err := s.CollectPlanned([]int{0}); !errors.Is(err, ErrDomainMismatch) {
		t.Errorf("err = %v, want ErrDomainMismatch", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.CollectPlanned([]int{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CollectPlanned([]int{0, 0}); !errors.Is(err, release.ErrHorizonExceeded) {
		t.Errorf("err = %v, want ErrHorizonExceeded", err)
	}
	// Explicit-budget collection still works after exhaustion.
	if _, err := s.Collect([]int{0, 0}, 0.1); err != nil {
		t.Fatal(err)
	}
}

func TestCollectPlannedNoPlan(t *testing.T) {
	s, _, _ := plannedServer(t)
	if _, err := s.CollectPlanned([]int{0, 1}); !errors.Is(err, ErrNoPlan) {
		t.Errorf("err = %v, want ErrNoPlan", err)
	}
	if s.PlanStep() != 0 {
		t.Error("PlanStep without a plan should be 0")
	}
}

func TestSetPlanMidStream(t *testing.T) {
	s, pb, pf := plannedServer(t)
	// Two exploratory steps with explicit budgets.
	for i := 0; i < 2; i++ {
		if _, err := s.Collect([]int{0, 1}, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := release.Quantified(pb, pf, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlan(plan)
	if s.PlanStep() != 1 {
		t.Errorf("PlanStep = %d, want 1 (plan indexes from attachment)", s.PlanStep())
	}
	if _, err := s.CollectPlanned([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if s.PlanStep() != 2 {
		t.Errorf("PlanStep = %d after one planned step", s.PlanStep())
	}
	b, _ := publishedAll(t, s)
	if math.Abs(b[2]-plan.Eps1) > 1e-15 {
		t.Errorf("first planned budget = %v, want plan.Eps1 = %v", b[2], plan.Eps1)
	}
	// Detach.
	s.SetPlan(nil)
	if _, err := s.CollectPlanned([]int{0, 1}); !errors.Is(err, ErrNoPlan) {
		t.Error("detached plan should fail CollectPlanned")
	}
}

func TestCollectPlannedUnboundedPlan(t *testing.T) {
	s, pb, pf := plannedServer(t)
	plan, err := release.UpperBound(pb, pf, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlan(plan)
	for i := 0; i < 20; i++ {
		if _, err := s.CollectPlanned([]int{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventLevelAlpha > 1+1e-9 {
		t.Errorf("upper-bound plan leaked %v > alpha", rep.EventLevelAlpha)
	}
}
