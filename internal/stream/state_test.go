package stream

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/markov"
	"repro/internal/release"
)

// stateChain builds a chain or fails the test.
func stateChain(t testing.TB, rows [][]float64) *markov.Chain {
	t.Helper()
	c, err := markov.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sparseChain builds an n-state road-network-style chain: each state
// reaches only a handful of successors.
func sparseChain(t testing.TB, n int, seed int64) *markov.Chain {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		rows[i][i] = rng.Float64() + 0.05
		for k := 0; k < 3; k++ {
			rows[i][(i+1+rng.Intn(n-1))%n] = rng.Float64() + 0.05
		}
		sum := 0.0
		for _, v := range rows[i] {
			sum += v
		}
		for j := range rows[i] {
			rows[i][j] /= sum
		}
	}
	return stateChain(t, rows)
}

// stepValues draws one synthetic database for a server.
func stepValues(rng *rand.Rand, users, domain int) []int {
	values := make([]int, users)
	for i := range values {
		values[i] = rng.Intn(domain)
	}
	return values
}

// mustEqualSeries compares two float64 slices for exact equality.
func mustEqualSeries(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v != %v", label, i, got[i], want[i])
		}
	}
}

// mustAgree asserts a restored server answers every summary query
// bit-identically to the original.
func mustAgree(t *testing.T, orig, restored *Server, sampleUsers []int) {
	t.Helper()
	ro, err := orig.Report()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := restored.Report()
	if err != nil {
		t.Fatal(err)
	}
	if *ro != *rr {
		t.Fatalf("Report diverged: original %+v restored %+v", ro, rr)
	}
	for _, u := range sampleUsers {
		so, err := orig.UserTPLSeries(u)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := restored.UserTPLSeries(u)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSeries(t, "UserTPLSeries", sr, so)
	}
	for _, w := range []int{1, 2, 3} {
		vo, uo, err := orig.MaxWEvent(w)
		if err != nil {
			t.Fatal(err)
		}
		vr, ur, err := restored.MaxWEvent(w)
		if err != nil {
			t.Fatal(err)
		}
		if vo != vr || uo != ur {
			t.Fatalf("MaxWEvent(%d): original (%v,%d) restored (%v,%d)", w, vo, uo, vr, ur)
		}
	}
	if orig.T() != restored.T() {
		t.Fatalf("T: %d != %d", orig.T(), restored.T())
	}
	epsO, histsO := publishedAll(t, orig)
	epsR, histsR := publishedAll(t, restored)
	mustEqualSeries(t, "Budgets", epsR, epsO)
	for i := range histsO {
		mustEqualSeries(t, "Published", histsR[i], histsO[i])
	}
}

// snapshotRoundTrip pushes a ServerState through gob — the encoding the
// service persists — proving serialization keeps bit-identical floats.
func snapshotRoundTrip(t *testing.T, st *ServerState) *ServerState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var back ServerState
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	return &back
}

// TestRestoreDifferential is the acceptance-criteria test: for dense,
// sparse, planned and cohort-shared sessions, Restore(Snapshot(s))
// yields identical Report, UserTPLSeries and MaxWEvent, and stays in
// lockstep when both servers continue with the same inputs.
func TestRestoreDifferential(t *testing.T) {
	dense := stateChain(t, [][]float64{{0.7, 0.2, 0.1}, {0.25, 0.5, 0.25}, {0.05, 0.15, 0.8}})
	denseF := stateChain(t, [][]float64{{0.6, 0.3, 0.1}, {0.2, 0.6, 0.2}, {0.1, 0.3, 0.6}})
	cases := []struct {
		name    string
		domain  int
		models  func(t *testing.T) []AdversaryModel
		plan    func(first AdversaryModel) (release.Plan, error)
		planned bool
	}{
		{
			name:   "dense",
			domain: 3,
			models: func(t *testing.T) []AdversaryModel {
				return []AdversaryModel{
					{Backward: dense, Forward: denseF},
					{Backward: dense},
					{Forward: denseF},
					{},
					{Backward: dense, Forward: denseF},
				}
			},
		},
		{
			name:   "sparse",
			domain: 24,
			models: func(t *testing.T) []AdversaryModel {
				sp := sparseChain(t, 24, 3)
				sp2 := sparseChain(t, 24, 4)
				models := make([]AdversaryModel, 12)
				for i := range models {
					switch i % 3 {
					case 0:
						models[i] = AdversaryModel{Backward: sp, Forward: sp2}
					case 1:
						models[i] = AdversaryModel{Backward: sp2}
					default:
						models[i] = AdversaryModel{}
					}
				}
				return models
			},
		},
		{
			name:   "planned",
			domain: 3,
			models: func(t *testing.T) []AdversaryModel {
				return []AdversaryModel{{Backward: dense, Forward: denseF}, {Backward: dense, Forward: denseF}, {}}
			},
			plan: func(first AdversaryModel) (release.Plan, error) {
				return release.UpperBound(first.Backward, first.Forward, 2.0)
			},
			planned: true,
		},
		{
			name:   "cohort-shared",
			domain: 3,
			models: func(t *testing.T) []AdversaryModel {
				models := make([]AdversaryModel, 400)
				for i := range models {
					if i%2 == 0 {
						models[i] = AdversaryModel{Backward: dense}
					} else {
						models[i] = AdversaryModel{Forward: denseF}
					}
				}
				return models
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			models := tc.models(t)
			srv, err := NewServer(tc.domain, len(models), models, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv.SetNoiseSeed(42)
			var origPlan release.Plan
			if tc.plan != nil {
				if origPlan, err = tc.plan(models[0]); err != nil {
					t.Fatal(err)
				}
				srv.SetPlan(origPlan)
			}
			data := rand.New(rand.NewSource(99))
			step := func(s *Server) {
				t.Helper()
				values := stepValues(data, len(models), tc.domain)
				if tc.planned {
					if _, err := s.CollectPlanned(values); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := s.Collect(values, 0.1+0.05*float64(s.T()%4)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 8; i++ {
				step(srv)
			}
			// Interleave a read so some accountants carry a stale FPL cache.
			if _, err := srv.Report(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				step(srv)
			}

			st := snapshotRoundTrip(t, srv.Snapshot())
			var restorePlan release.Plan
			if tc.plan != nil {
				if restorePlan, err = tc.plan(models[0]); err != nil {
					t.Fatal(err)
				}
			}
			restored, err := RestoreServer(st, RestoreOptions{Plan: restorePlan})
			if err != nil {
				t.Fatal(err)
			}
			sample := []int{0, len(models) - 1, len(models) / 2}
			mustAgree(t, srv, restored, sample)

			// Continue both with identical inputs: seeded noise makes even
			// the published histograms stay bit-identical.
			dataA := rand.New(rand.NewSource(7))
			dataB := rand.New(rand.NewSource(7))
			for i := 0; i < 5; i++ {
				va := stepValues(dataA, len(models), tc.domain)
				vb := stepValues(dataB, len(models), tc.domain)
				if tc.planned {
					if _, err := srv.CollectPlanned(va); err != nil {
						t.Fatal(err)
					}
					if _, err := restored.CollectPlanned(vb); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := srv.Collect(va, 0.2); err != nil {
						t.Fatal(err)
					}
					if _, err := restored.Collect(vb, 0.2); err != nil {
						t.Fatal(err)
					}
				}
			}
			mustAgree(t, srv, restored, sample)
		})
	}
}

// TestApplyStepReplay rebuilds a server from an early snapshot plus
// step records — the recovery path — and checks it matches the
// uninterrupted original exactly, including the noise stream.
func TestApplyStepReplay(t *testing.T) {
	chain := stateChain(t, [][]float64{{0.8, 0.2}, {0.3, 0.7}})
	models := []AdversaryModel{{Backward: chain}, {}, {Backward: chain}}
	srv, err := NewServer(2, 3, models, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetNoiseSeed(11)
	data := rand.New(rand.NewSource(5))

	var early *ServerState
	var records []StepRecord
	for i := 0; i < 9; i++ {
		if i == 4 {
			early = srv.Snapshot()
		}
		values := stepValues(data, 3, 2)
		eps := 0.1 + 0.1*float64(i%3)
		noisy, err := srv.Collect(values, eps)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, StepRecord{
			T:          srv.T(),
			Eps:        eps,
			Published:  append([]float64(nil), noisy...),
			NoiseDraws: srv.NoiseState().Draws,
		})
	}

	restored, err := RestoreServer(early, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if rec.T <= early.T() {
			continue
		}
		if err := restored.ApplyStep(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustAgree(t, srv, restored, []int{0, 1, 2})
	if got, want := restored.NoiseState(), srv.NoiseState(); got != want {
		t.Fatalf("noise state diverged: %+v != %+v", got, want)
	}
	// And the next live step must still be bit-identical.
	va := stepValues(rand.New(rand.NewSource(6)), 3, 2)
	pa, err := srv.Collect(va, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := restored.Collect(va, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSeries(t, "post-replay publish", pb, pa)

	// Replay misuse: gaps and garbage are rejected.
	if err := restored.ApplyStep(StepRecord{T: restored.T() + 2, Eps: 0.1, Published: []float64{0, 0}}); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("gap record: %v", err)
	}
	if err := restored.ApplyStep(StepRecord{T: restored.T() + 1, Eps: -1, Published: []float64{0, 0}}); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("bad budget record: %v", err)
	}
	if err := restored.ApplyStep(StepRecord{T: restored.T() + 1, Eps: 0.1, Published: []float64{0}}); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("wrong-domain record: %v", err)
	}
}

// TestRestoreReseedProvenance: a server with an unrestorable noise
// stream restores with reseeded provenance, and the accounting is
// unaffected.
func TestRestoreReseedProvenance(t *testing.T) {
	models := []AdversaryModel{{Backward: stateChain(t, [][]float64{{0.9, 0.1}, {0.2, 0.8}})}}
	srv, err := NewServer(2, 1, models, rand.New(rand.NewSource(123))) // external rng
	if err != nil {
		t.Fatal(err)
	}
	if ns := srv.NoiseState(); ns.Provenance != NoiseExternal {
		t.Fatalf("provenance %q, want external", ns.Provenance)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Collect([]int{i % 2}, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Snapshot()
	if st.RNG.Provenance != NoiseExternal || st.RNG.Seed != 0 {
		t.Fatalf("external snapshot leaked RNG detail: %+v", st.RNG)
	}
	restored, err := RestoreServer(st, RestoreOptions{ReseedSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if ns := restored.NoiseState(); ns.Provenance != NoiseReseeded {
		t.Fatalf("restored provenance %q, want reseeded", ns.Provenance)
	}
	mustAgree(t, srv, restored, []int{0})

	// Ephemeral seeds likewise never reach the snapshot.
	srv2, err := NewServer(2, 1, models, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv2.SetEphemeralNoiseSeed(555)
	st2 := srv2.Snapshot()
	if st2.RNG.Provenance != NoiseEphemeral || st2.RNG.Seed != 0 {
		t.Fatalf("ephemeral snapshot leaked the seed: %+v", st2.RNG)
	}
}

// TestRestoreRejectsCorruptState: structural corruption in any layer of
// the snapshot fails with ErrBadServerState.
func TestRestoreRejectsCorruptState(t *testing.T) {
	chain := stateChain(t, [][]float64{{0.8, 0.2}, {0.3, 0.7}})
	srv, err := NewServer(2, 4, []AdversaryModel{{Backward: chain}, {}, {Backward: chain}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		if _, err := srv.Collect(stepValues(data, 4, 2), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	mutations := map[string]func(st *ServerState){
		"domain-zero":           func(st *ServerState) { st.Domain = 0 },
		"user-map-short":        func(st *ServerState) { st.UserCohort = st.UserCohort[:2] },
		"cohort-index-wild":     func(st *ServerState) { st.UserCohort[1] = 9 },
		"first-user-wrong":      func(st *ServerState) { st.Cohorts[0].FirstUser = 3 },
		"budget-negative":       func(st *ServerState) { st.Budgets[1] = -0.5 },
		"published-missing":     func(st *ServerState) { st.Published = st.Published[:1] },
		"published-wrong-width": func(st *ServerState) { st.Published[0] = []float64{1} },
		"sensitivity-zero":      func(st *ServerState) { st.Sensitivity = 0 },
		"noise-unknown":         func(st *ServerState) { st.Noise = 9 },
		"plan-base-wild":        func(st *ServerState) { st.PlanBase = 99 },
		"provenance-unknown":    func(st *ServerState) { st.RNG.Provenance = "quantum" },
		"chain-not-stochastic":  func(st *ServerState) { st.Cohorts[0].Backward[0][0] = 0.5 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			st := snapshotRoundTrip(t, srv.Snapshot()) // deep copy via gob
			mutate(st)
			if _, err := RestoreServer(st, RestoreOptions{}); !errors.Is(err, ErrBadServerState) {
				t.Fatalf("corrupt state: want ErrBadServerState, got %v", err)
			}
		})
	}
	// Plan mismatches both ways.
	st := srv.Snapshot()
	plan, err := release.UpperBound(chain, nil, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(st, RestoreOptions{Plan: plan}); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("unexpected plan accepted: %v", err)
	}
	srv.SetPlan(plan)
	if _, err := RestoreServer(srv.Snapshot(), RestoreOptions{}); !errors.Is(err, ErrBadServerState) {
		t.Fatalf("missing plan accepted: %v", err)
	}
}

// TestSnapshotSharesCompiledEngines: restoring many sessions through
// one cache compiles each distinct chain once.
func TestSnapshotSharesCompiledEngines(t *testing.T) {
	chain := stateChain(t, [][]float64{{0.8, 0.2}, {0.3, 0.7}})
	cache := NewModelCache()
	var states []*ServerState
	for i := 0; i < 3; i++ {
		srv, err := NewServerCached(2, 2, []AdversaryModel{{Backward: chain}, {Backward: chain}}, nil, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Collect([]int{0, 1}, 0.1); err != nil {
			t.Fatal(err)
		}
		// Touch the quantifier so the engine compiles.
		if _, err := srv.Report(); err != nil {
			t.Fatal(err)
		}
		states = append(states, srv.Snapshot())
	}
	before := cache.Stats()
	for _, st := range states {
		if _, err := RestoreServer(st, RestoreOptions{Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("restores recompiled models: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Size != 1 {
		t.Fatalf("cache holds %d models, want 1", after.Size)
	}
}
