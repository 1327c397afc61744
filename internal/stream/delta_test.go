package stream

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/release"
)

// deltaServer is a planned, multi-cohort server with forward
// correlation, so FPL refreshes change a suffix of the cached series.
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

// roundTripGob pushes v through gob into out, as the service persists
// every delta.
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

// TestSnapshotDeltaExtendsToSnapshot is the capture differential: at
// every checkpoint of a stream with interleaved reads (FPL refreshes
// between captures, and captures with no new step), the first snapshot
// extended by every delta since — each pushed through gob, as the
// service persists them — equals Snapshot() exactly.
func TestSnapshotDeltaExtendsToSnapshot(t *testing.T) {
	s := deltaServer(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		if _, err := s.CollectPlanned(stepValues(rng, s.Users(), s.Domain())); err != nil {
			t.Fatal(err)
		}
	}
	base, cur := s.Checkpoint()
	st := snapshotRoundTrip(t, base)
	for round := 0; round < 40; round++ {
		for i := rng.Intn(4); i > 0; i-- {
			if round%2 == 0 {
				if _, err := s.CollectPlanned(stepValues(rng, s.Users(), s.Domain())); err != nil {
					t.Fatal(err)
				}
			} else if _, err := s.Collect(stepValues(rng, s.Users(), s.Domain()), 0.05+0.1*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if round%3 == 0 {
			// A read refreshes every cohort's forward series.
			if _, err := s.Report(); err != nil {
				t.Fatal(err)
			}
		}
		d, next := s.SnapshotDelta(cur)
		var back ServerDelta
		roundTripGob(t, d, &back)
		if err := st.Extend(&back); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cur = next
		if want := s.Snapshot(); !reflect.DeepEqual(st, want) {
			t.Fatalf("round %d (T=%d): base ⊕ deltas differs from Snapshot()", round, want.T())
		}
	}
	restored, err := RestoreServer(st, RestoreOptions{Plan: s.plan})
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, s, restored, []int{0, 1, 2, 3, 4})
}

// TestSnapshotDeltaCopiesOnlyChanges: a delta holds the new steps and
// only the forward-series suffix a refresh changed, not the history.
func TestSnapshotDeltaCopiesOnlyChanges(t *testing.T) {
	s := deltaServer(t)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		if _, err := s.Collect(stepValues(rng, s.Users(), s.Domain()), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Report(); err != nil {
		t.Fatal(err)
	}
	_, cur := s.Checkpoint()
	d, cur := s.SnapshotDelta(cur)
	if d.FromT != 200 || d.ToT != 200 || len(d.Budgets) != 0 {
		t.Fatalf("idle delta covers %d..%d with %d budgets", d.FromT, d.ToT, len(d.Budgets))
	}
	for ci, cd := range d.Cohorts {
		if len(cd.FPL) != 0 || cd.FPLFrom != 200 {
			t.Fatalf("cohort %d: idle delta carries FPL [%d,%d)", ci, cd.FPLFrom, cd.FPLT)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Collect(stepValues(rng, s.Users(), s.Domain()), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Report(); err != nil {
		t.Fatal(err)
	}
	d, _ = s.SnapshotDelta(cur)
	if len(d.Budgets) != 5 || len(d.Published) != 5 {
		t.Fatalf("delta carries %d budgets, %d rows; want 5", len(d.Budgets), len(d.Published))
	}
	for ci, cd := range d.Cohorts {
		if len(cd.BPL) != 5 || cd.FPLT != 205 {
			t.Fatalf("cohort %d: %d BPL values, FPL horizon %d", ci, len(cd.BPL), cd.FPLT)
		}
		// The forward series converges backward from the tail, so a
		// refresh rewrites a short suffix, never the whole history.
		if cd.FPLFrom < 100 {
			t.Fatalf("cohort %d: FPL delta starts at %d of 205", ci, cd.FPLFrom)
		}
	}
}

// TestExtendRejectsMismatchedDeltas: a delta that does not start where
// the state ends, or whose shape disagrees with the state, is refused
// and leaves the state untouched.
func TestExtendRejectsMismatchedDeltas(t *testing.T) {
	s := deltaServer(t)
	rng := rand.New(rand.NewSource(2))
	collect := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.CollectPlanned(stepValues(rng, s.Users(), s.Domain())); err != nil {
				t.Fatal(err)
			}
		}
	}
	collect(4)
	base, c0 := s.Checkpoint()
	collect(3)
	d1, c1 := s.SnapshotDelta(c0)
	collect(2)
	d2, _ := s.SnapshotDelta(c1)
	for name, mutate := range map[string]func(d *ServerDelta){
		"gap":          func(d *ServerDelta) { *d = *d2 },
		"overlap":      func(d *ServerDelta) { d.FromT-- },
		"short-budget": func(d *ServerDelta) { d.Budgets = d.Budgets[1:] },
		"bad-budget":   func(d *ServerDelta) { d.Budgets[0] = -1 },
		"wide-row":     func(d *ServerDelta) { d.Published[0] = append(d.Published[0], 1) },
		"cohorts":      func(d *ServerDelta) { d.Cohorts = d.Cohorts[1:] },
		"short-bpl":    func(d *ServerDelta) { d.Cohorts[0].BPL = d.Cohorts[0].BPL[1:] },
		"fpl-horizon":  func(d *ServerDelta) { d.Cohorts[0].FPLT = d.ToT + 1 },
		"fpl-from":     func(d *ServerDelta) { d.Cohorts[0].FPLFrom = len(base.Cohorts[0].Accountant.FPL) + 1 },
		"nil":          nil,
	} {
		t.Run(name, func(t *testing.T) {
			st := snapshotRoundTrip(t, base)
			var d *ServerDelta
			if mutate != nil {
				d = new(ServerDelta)
				roundTripGob(t, d1, d)
				mutate(d)
			}
			if err := st.Extend(d); !errors.Is(err, ErrBadServerState) {
				t.Fatalf("Extend = %v, want ErrBadServerState", err)
			}
			if !reflect.DeepEqual(st, snapshotRoundTrip(t, base)) {
				t.Fatal("a refused delta modified the state")
			}
		})
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
// series while captures run, so each capture must record the series it
// copied, not one a reader refreshed a moment later. Every delta must
// extend the state the previous ones built, and the result must
// restore to a server that answers like the live one.
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
	base, cur := s.Checkpoint()
	st := snapshotRoundTrip(t, base)
	for round := 0; round < 300; round++ {
		for i := 0; i < 1+round%3; i++ {
			if _, err := s.CollectPlanned(stepValues(rng, s.Users(), s.Domain())); err != nil {
				t.Fatal(err)
			}
		}
		d, next := s.SnapshotDelta(cur)
		var back ServerDelta
		roundTripGob(t, d, &back)
		if err := st.Extend(&back); err != nil {
			close(stop)
			<-done
			t.Fatalf("round %d: %v", round, err)
		}
		cur = next
		if round%50 == 49 { // a compaction: restart the chain
			var base *ServerState
			base, cur = s.Checkpoint()
			st = snapshotRoundTrip(t, base)
		}
	}
	close(stop)
	<-done
	restored, err := RestoreServer(st, RestoreOptions{Plan: s.plan})
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, s, restored, []int{0, 1, 2, 3, 4})
}
