package stream

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/release"
)

func twoUserModels() []AdversaryModel {
	return []AdversaryModel{
		{Backward: markov.Fig7Backward(), Forward: markov.Fig7Forward()},
		{}, // traditional DP adversary
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(0, 1, []AdversaryModel{{}}, nil); err == nil {
		t.Error("domain 0 should fail")
	}
	if _, err := NewServer(2, 0, nil, nil); err == nil {
		t.Error("0 users should fail")
	}
	if _, err := NewServer(2, 2, []AdversaryModel{{}}, nil); err == nil {
		t.Error("model count mismatch should fail")
	}
	three, _ := markov.IdentityChain(3)
	if _, err := NewServer(2, 1, []AdversaryModel{{Backward: three}}, nil); err == nil {
		t.Error("chain/domain mismatch should fail")
	}
	if _, err := NewServer(3, 1, []AdversaryModel{{Forward: three}}, nil); err != nil {
		t.Errorf("matching chain rejected: %v", err)
	}
}

func TestCollectPublishesHistogram(t *testing.T) {
	s, err := NewServer(2, 2, twoUserModels(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Collect([]int{0, 1}, 10) // tiny noise at eps=10
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("histogram length %d", len(out))
	}
	if math.Abs(out[0]-1) > 3 || math.Abs(out[1]-1) > 3 {
		t.Errorf("noisy histogram %v implausibly far from (1,1)", out)
	}
	if s.T() != 1 {
		t.Errorf("T = %d", s.T())
	}
	_, got, err := s.PublishedRange(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != out[0] {
		t.Error("PublishedRange(1, 1) mismatch")
	}
	if _, _, err := s.PublishedRange(2, 2); err == nil {
		t.Error("future time should fail")
	}
}

func TestCollectValidation(t *testing.T) {
	s, err := NewServer(2, 2, twoUserModels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect([]int{0}, 1); !errors.Is(err, ErrDomainMismatch) {
		t.Errorf("err = %v, want ErrDomainMismatch", err)
	}
	if _, err := s.Collect([]int{0, 5}, 1); err == nil {
		t.Error("out-of-domain value should fail")
	}
	if _, err := s.Collect([]int{0, 1}, 0); err == nil {
		t.Error("zero budget should fail")
	}
}

func TestServerLeakageMatchesCore(t *testing.T) {
	s, err := NewServer(2, 2, twoUserModels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eps := []float64{0.1, 0.2, 0.1}
	for _, e := range eps {
		if _, err := s.Collect([]int{0, 1}, e); err != nil {
			t.Fatal(err)
		}
	}
	qb := core.NewQuantifier(markov.Fig7Backward())
	qf := core.NewQuantifier(markov.Fig7Forward())
	tpl, err := core.TPLSeries(qb, qf, eps)
	if err != nil {
		t.Fatal(err)
	}
	for tm := 1; tm <= 3; tm++ {
		got, err := s.UserTPL(0, tm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tpl[tm-1]) > 1e-12 {
			t.Errorf("user 0 TPL(%d) = %v, want %v", tm, got, tpl[tm-1])
		}
		// The uncorrelated user leaks exactly eps_t.
		got1, err := s.UserTPL(1, tm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got1-eps[tm-1]) > 1e-12 {
			t.Errorf("user 1 TPL(%d) = %v, want %v", tm, got1, eps[tm-1])
		}
	}
	if _, err := s.UserTPL(5, 1); err == nil {
		t.Error("bad user should fail")
	}
}

func TestServerReport(t *testing.T) {
	s, err := NewServer(2, 2, twoUserModels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if empty.T != 0 {
		t.Error("empty report should have T=0")
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Collect([]int{0, 1}, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.T != 5 {
		t.Errorf("T = %d", rep.T)
	}
	if rep.WorstUser != 0 {
		t.Errorf("worst user = %d, want the correlated one", rep.WorstUser)
	}
	if rep.EventLevelAlpha <= rep.NominalEventLevel {
		t.Errorf("correlated alpha %v should exceed nominal %v", rep.EventLevelAlpha, rep.NominalEventLevel)
	}
	if math.Abs(rep.UserLevel-0.5) > 1e-12 {
		t.Errorf("user level = %v, want 0.5", rep.UserLevel)
	}
	if rep.NominalEventLevel != 0.1 {
		t.Errorf("nominal = %v", rep.NominalEventLevel)
	}
}

func TestServerWEvent(t *testing.T) {
	s, err := NewServer(2, 2, twoUserModels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Collect([]int{0, 1}, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	// Uncorrelated user: w-event equals w*eps.
	v, err := s.WEvent(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.2) > 1e-12 {
		t.Errorf("uncorrelated 2-event leakage = %v, want 0.2", v)
	}
	// Correlated user leaks more.
	v0, err := s.WEvent(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v0 <= v {
		t.Errorf("correlated 2-event leakage %v should exceed %v", v0, v)
	}
	if _, err := s.WEvent(9, 1); err == nil {
		t.Error("bad user should fail")
	}
}

func TestSetNoiseGeometric(t *testing.T) {
	s, err := NewServer(3, 2, []AdversaryModel{{}, {}}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetNoise(release.GeometricNoise); err != nil {
		t.Fatal(err)
	}
	out, err := s.Collect([]int{0, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != math.Trunc(v) {
			t.Errorf("cell %d: geometric release %v not integral", i, v)
		}
	}
	// Fractional sensitivity conflicts with geometric noise, in either
	// setter order: SetSensitivity must re-validate against the active
	// noise kind (regression: it used to silently break the geometric
	// path when called after SetNoise).
	if err := s.SetSensitivity(1.5); err == nil {
		t.Error("fractional sensitivity should be rejected while geometric noise is active")
	}
	if err := s.SetNoise(release.LaplaceNoise); err != nil {
		t.Fatal(err)
	}
	if err := s.SetSensitivity(1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNoise(release.GeometricNoise); err == nil {
		t.Error("fractional sensitivity should reject geometric noise")
	}
	if err := s.SetSensitivity(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNoise(release.Noise(42)); err == nil {
		t.Error("unknown noise kind should fail")
	}
	if err := s.SetNoise(release.LaplaceNoise); err != nil {
		t.Fatal(err)
	}
}

func TestSetSensitivity(t *testing.T) {
	s, err := NewServer(2, 1, []AdversaryModel{{}}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSensitivity(2); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, -1, math.NaN()} {
		if err := s.SetSensitivity(bad); err == nil {
			t.Errorf("SetSensitivity(%v) should fail", bad)
		}
	}
}

func TestServerBudgetsCopy(t *testing.T) {
	s, err := NewServer(2, 1, []AdversaryModel{{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect([]int{1}, 0.3); err != nil {
		t.Fatal(err)
	}
	eps, hists := publishedAll(t, s)
	eps[0], hists[0][0] = 9, 9
	if eps, hists := publishedAll(t, s); eps[0] != 0.3 || hists[0][0] == 9 {
		t.Error("PublishedRange exposes internal state")
	}
}

// publishedAll reads the whole release history, budgets and published
// histograms, through PublishedRange.
func publishedAll(t *testing.T, s *Server) (eps []float64, hists [][]float64) {
	t.Helper()
	if s.T() == 0 {
		return nil, nil
	}
	eps, hists, err := s.PublishedRange(1, s.T())
	if err != nil {
		t.Fatal(err)
	}
	return eps, hists
}
