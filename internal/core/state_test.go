package core

import (
	"math/rand"
	"testing"

	"repro/internal/markov"
)

// stateTestChain builds a small correlated chain for accountant tests.
func stateTestChain(t testing.TB, rows [][]float64) *markov.Chain {
	t.Helper()
	c, err := markov.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func observedAccountant(t testing.TB, pb, pf *markov.Chain, budgets []float64) *Accountant {
	t.Helper()
	a := NewAccountant(pb, pf)
	for _, e := range budgets {
		if _, err := a.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestSnapshotRestoreDifferential proves the restore contract: an
// accountant rebuilt by charging the original's budgets — all a
// snapshot keeps — answers every query bit-identically to the original,
// whose forward cache was refreshed at an earlier horizon, both at the
// snapshot point and after both continue with the same observations.
func TestSnapshotRestoreDifferential(t *testing.T) {
	pb := stateTestChain(t, [][]float64{{0.8, 0.2}, {0.3, 0.7}})
	pf := stateTestChain(t, [][]float64{{0.6, 0.4}, {0.1, 0.9}})
	cases := []struct {
		name   string
		pb, pf *markov.Chain
	}{
		{"both-directions", pb, pf},
		{"backward-only", pb, nil},
		{"forward-only", nil, pf},
		{"no-correlation", nil, nil},
	}
	rng := rand.New(rand.NewSource(7))
	budgets := make([]float64, 20)
	for i := range budgets {
		budgets[i] = 0.05 + rng.Float64()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := observedAccountant(t, tc.pb, tc.pf, budgets[:12])
			// Force a partially stale FPL cache: query at 12, then observe more.
			if _, err := orig.TPL(5); err != nil {
				t.Fatal(err)
			}
			for _, e := range budgets[12:15] {
				if _, err := orig.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			restored := NewAccountantFromQuantifiers(NewQuantifier(tc.pb), NewQuantifier(tc.pf))
			for _, e := range orig.Budgets() {
				if _, err := restored.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			compare := func() {
				t.Helper()
				for tt := 1; tt <= orig.T(); tt++ {
					for name, f := range map[string]func(int) (float64, error){
						"BPL": orig.BPL, "FPL": orig.FPL, "TPL": orig.TPL,
					} {
						want, err := f(tt)
						if err != nil {
							t.Fatal(err)
						}
						var got float64
						switch name {
						case "BPL":
							got, err = restored.BPL(tt)
						case "FPL":
							got, err = restored.FPL(tt)
						case "TPL":
							got, err = restored.TPL(tt)
						}
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s(%d): restored %v != original %v", name, tt, got, want)
						}
					}
				}
				wantMax, err := orig.MaxTPL()
				if err != nil {
					t.Fatal(err)
				}
				gotMax, err := restored.MaxTPL()
				if err != nil {
					t.Fatal(err)
				}
				if gotMax != wantMax {
					t.Fatalf("MaxTPL: restored %v != original %v", gotMax, wantMax)
				}
				wantW, err := orig.WEvent(3)
				if err != nil {
					t.Fatal(err)
				}
				gotW, err := restored.WEvent(3)
				if err != nil {
					t.Fatal(err)
				}
				if gotW != wantW {
					t.Fatalf("WEvent(3): restored %v != original %v", gotW, wantW)
				}
			}
			compare()
			// Both continue: the incremental refresh must stay in lockstep.
			for _, e := range budgets[15:] {
				if _, err := orig.Observe(e); err != nil {
					t.Fatal(err)
				}
				if _, err := restored.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			compare()
		})
	}
}

// TestContentHash pins the content key's semantics: equal content
// gives equal hashes, different content different ones, nil hashes to "".
func TestContentHash(t *testing.T) {
	rows := [][]float64{{0.8, 0.2}, {0.3, 0.7}}
	a := NewQuantifier(stateTestChain(t, rows))
	b := NewQuantifier(stateTestChain(t, rows))
	c := NewQuantifier(stateTestChain(t, [][]float64{{0.5, 0.5}, {0.5, 0.5}}))
	if a.ContentHash() != b.ContentHash() {
		t.Fatal("content-equal chains hash differently")
	}
	if a.ContentHash() == c.ContentHash() {
		t.Fatal("different chains share a hash")
	}
	var nilQ *Quantifier
	if nilQ.ContentHash() != "" {
		t.Fatal("nil quantifier must hash to empty")
	}
	if len(a.ContentHash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(a.ContentHash()))
	}
}
