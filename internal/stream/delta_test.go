package stream

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/release"
)

// deltaServer is a planned, multi-cohort server with forward
// correlation, so reads between captures refresh the forward series.
func deltaServer(t *testing.T) *Server {
	t.Helper()
	pb := stateChain(t, [][]float64{{0.7, 0.2, 0.1}, {0.25, 0.5, 0.25}, {0.05, 0.15, 0.8}})
	pf := stateChain(t, [][]float64{{0.6, 0.3, 0.1}, {0.2, 0.6, 0.2}, {0.1, 0.3, 0.6}})
	models := []AdversaryModel{{Backward: pb, Forward: pf}, {Backward: pb}, {Forward: pf}, {}, {Backward: pb, Forward: pf}}
	s, err := NewServer(3, len(models), models, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := release.UpperBound(pb, pf, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlan(plan)
	return s
}

// roundTripGob pushes v through gob into out, as the service journals
// every step record.
func roundTripGob(t *testing.T, v, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// journalRecords returns a batch's step records as the service journals
// them: each pushed through gob.
func journalRecords(t *testing.T, res []StepResult) []StepRecord {
	t.Helper()
	recs := make([]StepRecord, len(res))
	for i, r := range res {
		roundTripGob(t, StepRecord{T: r.T, Eps: r.Eps, Published: r.Published, NoiseDraws: r.Draws}, &recs[i])
	}
	return recs
}

// foldResults folds a batch's journal records onto st with AppendStep.
func foldResults(t *testing.T, st *ServerState, res []StepResult) error {
	t.Helper()
	for _, rec := range journalRecords(t, res) {
		if err := st.AppendStep(rec); err != nil {
			return err
		}
	}
	return nil
}

// TestAppendStepFoldsJournal: a base with every later step's journal
// record folded on — each pushed through gob, as the service journals
// them — equals Snapshot() exactly, noise position included, and
// restores to a server that answers like the live one. A record that
// does not continue the state is refused and leaves it untouched.
func TestAppendStepFoldsJournal(t *testing.T) {
	s := deltaServer(t)
	s.SetNoiseSeed(17)
	rng := rand.New(rand.NewSource(9))
	var journal []StepRecord
	collect := func(n int) {
		t.Helper()
		steps := make([]BatchStep, n)
		for i := range steps {
			steps[i].Values = stepValues(rng, s.Users(), s.Domain())
			if rng.Intn(2) == 0 {
				eps := 0.05 + 0.1*rng.Float64()
				steps[i].Eps = &eps
			}
		}
		res, err := s.CollectBatch(steps)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(journal, journalRecords(t, res)...)
	}
	collect(7)
	base := s.Snapshot()
	journal = journal[:0]
	for i := 0; i < 30; i++ {
		collect(1 + rng.Intn(4))
	}
	st := snapshotRoundTrip(t, base)
	for _, rec := range journal {
		if err := st.AppendStep(rec); err != nil {
			t.Fatal(err)
		}
	}
	if want := s.Snapshot(); !reflect.DeepEqual(st, want) {
		t.Fatalf("base ⊕ journal differs from Snapshot() at T=%d", want.T())
	}
	restored, err := RestoreServer(st, RestoreOptions{Plan: s.plan})
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, s, restored, []int{0, 1, 2, 3, 4})
	for name, rec := range map[string]StepRecord{"gap": journal[1], "overlap": journal[len(journal)-1]} {
		before := snapshotRoundTrip(t, st)
		if err := st.AppendStep(rec); !errors.Is(err, ErrBadServerState) {
			t.Fatalf("%s: AppendStep = %v, want ErrBadServerState", name, err)
		}
		if !reflect.DeepEqual(st, before) {
			t.Fatalf("%s: a refused record modified the state", name)
		}
	}
}

// TestCohortNumberingByPointerPair: memoising the cohort per (backward,
// forward) pointer pair keeps the content-based grouping — distinct
// pointers to equal chains share a cohort, the same pointers in swapped
// roles do not — and the first-appearance numbering and FirstUser.
func TestCohortNumberingByPointerPair(t *testing.T) {
	rows := [][]float64{{0.8, 0.2}, {0.3, 0.7}}
	a, a2 := stateChain(t, rows), stateChain(t, rows)
	b := stateChain(t, [][]float64{{0.6, 0.4}, {0.1, 0.9}})
	models := []AdversaryModel{
		{},                         // 0: cohort 0
		{Backward: a},              // 1: cohort 1
		{Backward: a2},             // 2: cohort 1 (equal content, other pointer)
		{Backward: a, Forward: b},  // 3: cohort 2
		{Backward: b, Forward: a},  // 4: cohort 3 (roles swapped)
		{Backward: a2, Forward: b}, // 5: cohort 2
		{},                         // 6: cohort 0
		{Forward: a},               // 7: cohort 4
		{Backward: b, Forward: a2}, // 8: cohort 3
		{Backward: a},              // 9: cohort 1
		{Forward: a2},              // 10: cohort 4
		{Backward: b},              // 11: cohort 5
		{Backward: a2},             // 12: cohort 1
		{Forward: b},               // 13: cohort 6
		{Backward: a, Forward: b},  // 14: cohort 2
		{},                         // 15: cohort 0
		{Backward: b},              // 16: cohort 5
		{Backward: a, Forward: a2}, // 17: cohort 7
		{Backward: a2, Forward: a}, // 18: cohort 7
		{Backward: b, Forward: b},  // 19: cohort 8
	}
	want := []int{0, 1, 1, 2, 3, 2, 0, 4, 3, 1, 4, 5, 1, 6, 2, 0, 5, 7, 7, 8}
	s, err := NewServer(2, len(models), models, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u, ci := range want {
		if got, _ := s.CohortOf(u); got != ci {
			t.Fatalf("user %d in cohort %d, want %d", u, got, ci)
		}
	}
	st := s.Snapshot()
	if len(st.Cohorts) != 9 {
		t.Fatalf("%d cohorts, want 9", len(st.Cohorts))
	}
	for ci, wantFirst := range []int{0, 1, 3, 4, 7, 11, 13, 17, 19} {
		if got := st.Cohorts[ci].FirstUser; got != wantFirst {
			t.Fatalf("cohort %d FirstUser %d, want %d", ci, got, wantFirst)
		}
	}
}

// TestSnapshotDeltaUnderConcurrentReads: readers refresh the forward
// series while batches land and captures run. Every batch's journal
// records must fold onto the state the base and the earlier records
// built, and the result must equal Snapshot() and restore to a server
// that answers like the live one.
func TestSnapshotDeltaUnderConcurrentReads(t *testing.T) {
	s := deltaServer(t)
	rng := rand.New(rand.NewSource(13))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := s.Report(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	st := snapshotRoundTrip(t, s.Snapshot())
	for round := 0; round < 300; round++ {
		steps := make([]BatchStep, 1+round%3)
		for i := range steps {
			steps[i].Values = stepValues(rng, s.Users(), s.Domain())
		}
		res, err := s.CollectBatch(steps)
		if err == nil {
			err = foldResults(t, st, res)
		}
		if err != nil {
			close(stop)
			<-done
			t.Fatalf("round %d: %v", round, err)
		}
		if round%50 == 49 { // a compaction: a fresh base
			st = snapshotRoundTrip(t, s.Snapshot())
		}
	}
	close(stop)
	<-done
	if want := s.Snapshot(); !reflect.DeepEqual(st, want) {
		t.Fatalf("base ⊕ journal differs from Snapshot() at T=%d", want.T())
	}
	restored, err := RestoreServer(st, RestoreOptions{Plan: s.plan})
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, s, restored, []int{0, 1, 2, 3, 4})
}

// TestSameCohortReadsDuringCaptures: readers of one cohort run
// concurrently — through every read method at once — while Snapshot
// captures run between CollectBatch calls (run it
// under -race: the forward-series cache a read rewrites is locked
// inside core.Accountant, not by the stream package). Every read equals
// the batch series (core.TPLSeries, WEventTPL) at the T it saw, and the
// base with every later batch's journal records folded on equals
// Snapshot() bit for bit.
func TestSameCohortReadsDuringCaptures(t *testing.T) {
	s := deltaServer(t) // users 0 and 4 share cohort 0
	const steps, w = 60, 3
	eps := make([]float64, steps)
	for i := range eps {
		eps[i] = 0.05 + 0.01*float64(i%7)
	}
	// bpl/fpl/tpl[c][T] are cohort c's batch series after T steps, and
	// wev[c][T] its worst w-window.
	K := len(s.cohorts)
	bpl, fpl, tpl := make([][][]float64, K), make([][][]float64, K), make([][][]float64, K)
	wev := make([][]float64, K)
	for c, co := range s.cohorts {
		qb, qf := core.NewQuantifier(co.backward), core.NewQuantifier(co.forward)
		bpl[c], fpl[c], tpl[c] = make([][]float64, steps+1), make([][]float64, steps+1), make([][]float64, steps+1)
		wev[c] = make([]float64, steps+1)
		for T := 1; T <= steps; T++ {
			var err error
			if bpl[c][T], err = core.BPLSeries(qb, eps[:T]); err != nil {
				t.Fatal(err)
			}
			if fpl[c][T], err = core.FPLSeries(qf, eps[:T]); err != nil {
				t.Fatal(err)
			}
			if tpl[c][T], err = core.TPLSeries(qb, qf, eps[:T]); err != nil {
				t.Fatal(err)
			}
			if T >= w {
				if wev[c][T], err = core.WEventTPL(bpl[c][T], fpl[c][T], eps[:T], w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// worst is the population-worst of f over the cohorts and the first
	// user attaining it.
	worst := func(f func(c int) float64) (float64, int) {
		v, user := f(0), s.cohorts[0].firstUser
		for c := 1; c < K; c++ {
			if x := f(c); x > v {
				v, user = x, s.cohorts[c].firstUser
			}
		}
		return v, user
	}
	collect := func(n int) []StepResult {
		steps := make([]BatchStep, n)
		for i := range steps {
			e := eps[s.T()+i]
			steps[i] = BatchStep{Counts: []int{s.Users(), 0, 0}, Eps: &e}
		}
		res, err := s.CollectBatch(steps)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// read runs read method m against cohort 0 and checks the result at
	// the T it saw. A method whose result does not reveal T is checked
	// only when T did not move around the call.
	const methods = 9
	read := func(m, i int) {
		T0 := s.T()
		u := []int{0, 4}[i%2]
		tt := 1 + i%T0
		var err error
		check := func(label string, got, want float64) {
			if s.T() == T0 && got != want {
				t.Errorf("T=%d: %s = %v, want %v", T0, label, got, want)
			}
		}
		switch m {
		case 0:
			var v float64
			if v, err = s.UserTPL(u, tt); err == nil {
				check("UserTPL", v, tpl[0][T0][tt-1])
			}
		case 1:
			var series []float64
			if series, err = s.UserTPLSeries(u); err == nil && !reflect.DeepEqual(series, tpl[0][len(series)]) {
				t.Errorf("UserTPLSeries at T=%d differs from TPLSeries", len(series))
			}
		case 2:
			var series []float64
			if series, err = s.UserTPLRange(u, tt, T0); err == nil && s.T() == T0 && !reflect.DeepEqual(series, tpl[0][T0][tt-1:]) {
				t.Errorf("UserTPLRange(%d, %d) at T=%d differs from TPLSeries", tt, T0, T0)
			}
		case 3:
			var v float64
			if v, err = s.WEvent(u, w); err == nil {
				check("WEvent", v, wev[0][T0])
			}
		case 4:
			var v float64
			var user int
			if v, user, err = s.MaxWEvent(w); err == nil {
				want, wantUser := worst(func(c int) float64 { return wev[c][T0] })
				check("MaxWEvent", v, want)
				check("MaxWEvent user", float64(user), float64(wantUser))
			}
		case 5:
			var r *Report
			if r, err = s.Report(); err == nil {
				want, wantUser := worst(func(c int) float64 {
					m := tpl[c][r.T][0]
					for _, v := range tpl[c][r.T] {
						m = max(m, v)
					}
					return m
				})
				if r.EventLevelAlpha != want || r.WorstUser != wantUser || r.UserLevel != core.UserLevelTPL(eps[:r.T]) {
					t.Errorf("Report at T=%d: %+v, want alpha %v user %d", r.T, r, want, wantUser)
				}
			}
		case 6:
			var p LeakagePoint
			if p, err = s.LeakageAt(tt); err == nil {
				want, wantUser := worst(func(c int) float64 { return tpl[c][T0][tt-1] })
				check("LeakageAt TPL", p.TPL, want)
				check("LeakageAt user", float64(p.WorstUser), float64(wantUser))
			}
		case 7:
			var ls []CohortLeakage
			if ls, err = s.CohortLeakages(tt); err == nil {
				for c, l := range ls {
					check("CohortLeakages TPL", l.TPL, tpl[c][T0][tt-1])
					check("CohortLeakages BPL", l.BPL, bpl[c][T0][tt-1])
					check("CohortLeakages FPL", l.FPL, fpl[c][T0][tt-1])
				}
			}
		case 8:
			// A capture from a reader holds the budgets charged so far.
			if st := s.Snapshot(); !reflect.DeepEqual(st.Budgets, eps[:st.T()]) {
				t.Errorf("Snapshot at T=%d holds other budgets", st.T())
			}
		}
		if err != nil {
			t.Errorf("read %d at T=%d: %v", m, T0, err)
		}
	}

	collect(3)
	st := snapshotRoundTrip(t, s.Snapshot())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
					read(i%methods, i)
				}
			}
		}(g)
	}
	for round := 0; s.T() < steps; round++ {
		if err := foldResults(t, st, collect(min(1+round%3, steps-s.T()))); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: %v", round, err)
		}
		if round%7 == 6 { // a compaction: a fresh base
			st = snapshotRoundTrip(t, s.Snapshot())
		}
	}
	close(stop)
	wg.Wait()
	for m := 0; m < methods; m++ { // every method once more, at a fixed T
		read(m, m)
	}
	if want := s.Snapshot(); !reflect.DeepEqual(st, want) {
		t.Fatalf("base ⊕ journal differs from Snapshot() at T=%d", want.T())
	}
}
