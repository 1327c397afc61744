package service

import (
	"sync"
	"testing"

	"repro/internal/markov"
)

// TestRegistryReusesCompiledModels checks the cross-session sharing:
// two sessions declaring content-identical correlation chains compile
// the model once, and a third session with a new chain compiles exactly
// one more.
func TestRegistryReusesCompiledModels(t *testing.T) {
	reg := NewRegistry()
	chain := markov.Fig7Backward()
	model := ModelConfig{Backward: chain, Forward: chain}
	mk := func(name string) *SessionConfig {
		return &SessionConfig{
			Name:    name,
			Domain:  chain.N(),
			Cohorts: []CohortConfig{{Users: 3, Model: model}},
			Seed:    1,
		}
	}
	s1, err := reg.Create(mk("a"))
	if err != nil {
		t.Fatal(err)
	}
	if st := reg.ModelCache().Stats(); st.Misses != 1 || st.Size != 1 {
		t.Fatalf("after one session: cache %+v, want one compiled model", st)
	}
	s2, err := reg.Create(mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if st := reg.ModelCache().Stats(); st.Misses != 1 {
		t.Fatalf("second identical session recompiled: cache %+v", st)
	}
	other := markov.Fig7Forward()
	if _, err := reg.Create(&SessionConfig{
		Name:    "c",
		Domain:  other.N(),
		Cohorts: []CohortConfig{{Users: 2, Model: ModelConfig{Backward: other}}},
		Seed:    1,
	}); err != nil {
		t.Fatal(err)
	}
	if st := reg.ModelCache().Stats(); st.Misses != 2 || st.Size != 2 {
		t.Fatalf("after distinct model: cache %+v, want two compiled models", st)
	}

	// The shared engine must leave per-tenant accounting untouched:
	// identical sessions stepped identically report identical leakage.
	for i := 0; i < 4; i++ {
		if err := collectStep(s1, []int{0, 1, 0}, 0.1); err != nil {
			t.Fatal(err)
		}
		if err := collectStep(s2, []int{0, 1, 0}, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	a, err := s1.Server().UserTPL(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Server().UserTPL(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical sessions diverged: TPL %v vs %v", a, b)
	}
}

// TestRegistryModelReuseConcurrent creates sessions over the same chain
// concurrently and steps them in parallel — the engine-shared-across-
// sessions race test (run under -race in CI).
func TestRegistryModelReuseConcurrent(t *testing.T) {
	reg := NewRegistry()
	chain := markov.Fig7Backward()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := reg.Create(&SessionConfig{
				Name:    "sess-" + string(rune('a'+g)),
				Domain:  chain.N(),
				Cohorts: []CohortConfig{{Users: 2, Model: ModelConfig{Backward: chain, Forward: chain}}},
				Seed:    int64(g + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10; i++ {
				if err := collectStep(s, []int{0, 1}, 0.05); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := s.Server().Report(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if st := reg.ModelCache().Stats(); st.Misses != 1 {
		t.Fatalf("8 concurrent identical sessions compiled %d models, want 1 (%+v)", st.Misses, st)
	}
}
