package stream

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/release"
)

// TestCohortDedup checks that users with content-identical adversary
// models collapse into shared cohorts — whether they share chain
// pointers or merely chain contents — and that the deduplicated
// accounting reports leakage identical to one accountant per distinct
// model.
func TestCohortDedup(t *testing.T) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	// Content-equal but pointer-distinct copies of pb.
	pbCopy, err := markov.New(pb.P())
	if err != nil {
		t.Fatal(err)
	}
	models := []AdversaryModel{
		{Backward: pb, Forward: pf},
		{Backward: pbCopy, Forward: pf}, // same content, different pointer
		{Backward: pb},                  // backward-only: its own cohort
		{},                              // traditional DP adversary
		{Backward: pb, Forward: pf},     // shared pointers again
		{},
	}
	s, err := NewServer(pb.N(), len(models), models, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cohorts(); got != 3 {
		t.Fatalf("Cohorts() = %d, want 3", got)
	}
	for _, pair := range [][2]int{{0, 1}, {0, 4}, {3, 5}} {
		a, err := s.CohortOf(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.CohortOf(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("users %d and %d in cohorts %d and %d, want shared", pair[0], pair[1], a, b)
		}
	}

	budgets := []float64{0.1, 0.3, 0.2, 0.1}
	values := make([]int, len(models))
	for _, eps := range budgets {
		if _, err := s.Collect(values, eps); err != nil {
			t.Fatal(err)
		}
	}

	// Per-user leakage must equal a dedicated accountant driven with the
	// same budgets — dedup is an optimization, not an approximation.
	for u, m := range models {
		acc := core.NewAccountant(m.Backward, m.Forward)
		for _, eps := range budgets {
			if _, err := acc.Observe(eps); err != nil {
				t.Fatal(err)
			}
		}
		for step := 1; step <= len(budgets); step++ {
			want, err := acc.TPL(step)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.UserTPL(u, step)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("user %d TPL(%d) = %v, want %v", u, step, got, want)
			}
		}
	}

	// The report's worst user must be the smallest user id in the worst
	// cohort (the same user a per-user scan reports).
	rep, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	wantAlpha, wantUser := math.Inf(-1), 0
	for u, m := range models {
		acc := core.NewAccountant(m.Backward, m.Forward)
		for _, eps := range budgets {
			if _, err := acc.Observe(eps); err != nil {
				t.Fatal(err)
			}
		}
		v, err := acc.MaxTPL()
		if err != nil {
			t.Fatal(err)
		}
		if v > wantAlpha {
			wantAlpha, wantUser = v, u
		}
	}
	if rep.EventLevelAlpha != wantAlpha || rep.WorstUser != wantUser {
		t.Errorf("Report = (alpha %v, user %d), want (alpha %v, user %d)",
			rep.EventLevelAlpha, rep.WorstUser, wantAlpha, wantUser)
	}
	if want := core.UserLevelTPL(budgets); rep.UserLevel != want {
		t.Errorf("UserLevel = %v, want %v", rep.UserLevel, want)
	}
}

// TestUserTPLSeries checks the series accessor against the scalar one.
func TestUserTPLSeries(t *testing.T) {
	s, err := NewServer(2, 2, twoUserModels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Collect([]int{0, 1}, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < 2; u++ {
		series, err := s.UserTPLSeries(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != 5 {
			t.Fatalf("user %d: series length %d, want 5", u, len(series))
		}
		for step := 1; step <= 5; step++ {
			want, err := s.UserTPL(u, step)
			if err != nil {
				t.Fatal(err)
			}
			if series[step-1] != want {
				t.Errorf("user %d series[%d] = %v, want %v", u, step-1, series[step-1], want)
			}
		}
	}
	if _, err := s.UserTPLSeries(2); err == nil {
		t.Error("out-of-range user should fail")
	}
}

// TestCollectAllOrNothing is the regression test for the partial-update
// bug: a Collect that fails for any reason — bad budget, bad values,
// noise-parameter mismatch — must leave no accountant charged and
// nothing published, and the server must behave exactly like one that
// never saw the failed call.
func TestCollectAllOrNothing(t *testing.T) {
	newServer := func() *Server {
		s, err := NewServer(2, 2, twoUserModels(), rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	assertUncharged := func(t *testing.T, s *Server) {
		t.Helper()
		if s.T() != 0 {
			t.Fatalf("T() = %d after failed Collect, want 0", s.T())
		}
		for u := 0; u < 2; u++ {
			if _, err := s.UserTPL(u, 1); err == nil {
				t.Fatalf("user %d charged for an unpublished step", u)
			}
		}
	}

	t.Run("bad budgets", func(t *testing.T) {
		s := newServer()
		for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			if _, err := s.Collect([]int{0, 1}, eps); err == nil {
				t.Fatalf("Collect with eps=%v should fail", eps)
			}
			assertUncharged(t, s)
		}
	})
	t.Run("bad values", func(t *testing.T) {
		s := newServer()
		if _, err := s.Collect([]int{0}, 0.1); err == nil {
			t.Fatal("short value vector should fail")
		}
		if _, err := s.Collect([]int{0, 7}, 0.1); err == nil {
			t.Fatal("out-of-domain value should fail")
		}
		assertUncharged(t, s)
	})
	t.Run("recovers cleanly", func(t *testing.T) {
		s := newServer()
		if _, err := s.Collect([]int{0, 1}, math.NaN()); err == nil {
			t.Fatal("NaN budget should fail")
		}
		if _, err := s.Collect([]int{0, 1}, 0.4); err != nil {
			t.Fatal(err)
		}
		fresh := newServer()
		if _, err := fresh.Collect([]int{0, 1}, 0.4); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 2; u++ {
			got, err := s.UserTPL(u, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.UserTPL(u, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("user %d: TPL after failed step %v, fresh server %v", u, got, want)
			}
		}
	})
}

// TestConcurrentReadersDuringCollect exercises the documented
// concurrency contract: readers may run concurrently with Collect and
// with each other (run under -race in CI).
func TestConcurrentReadersDuringCollect(t *testing.T) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	models := make([]AdversaryModel, 16)
	for i := range models {
		switch i % 3 {
		case 0:
			models[i] = AdversaryModel{Backward: pb, Forward: pf}
		case 1:
			models[i] = AdversaryModel{Backward: pb}
		}
	}
	s, err := NewServer(pb.N(), len(models), models, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := release.UpperBound(pb, pf, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlan(plan)

	const steps = 40
	values := make([]int, len(models))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if T := s.T(); T > 0 {
					if _, err := s.UserTPL(r, 1); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := s.PublishedRange(1, T); err != nil {
						// A concurrent Collect may have advanced T; only
						// a range error on a stable T is a bug, and T
						// only grows, so any error here is one.
						t.Error(err)
						return
					}
				}
				if _, err := s.Report(); err != nil {
					t.Error(err)
					return
				}
				_ = s.PlanStep()
			}
		}(r)
	}
	for i := 0; i < steps; i++ {
		if i%2 == 0 {
			if _, err := s.Collect(values, 0.05); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := s.CollectPlanned(values); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if s.T() != steps {
		t.Fatalf("T() = %d, want %d", s.T(), steps)
	}
}
