package core

import (
	"math"
	"testing"

	"repro/internal/markov"
)

func TestAccountantMatchesBatchSeries(t *testing.T) {
	pb := markov.Fig7Backward()
	pf := markov.Fig7Forward()
	acc := NewAccountant(pb, pf)
	eps := []float64{0.1, 0.3, 0.2, 0.25, 0.15}
	for i, e := range eps {
		n, err := acc.Observe(e)
		if err != nil {
			t.Fatal(err)
		}
		if n != i+1 {
			t.Errorf("Observe returned %d, want %d", n, i+1)
		}
	}
	qb := NewQuantifier(pb)
	qf := NewQuantifier(pf)
	bpl, _ := BPLSeries(qb, eps)
	fpl, _ := FPLSeries(qf, eps)
	tpl, _ := TPLSeries(qb, qf, eps)
	for tm := 1; tm <= len(eps); tm++ {
		b, err := acc.BPL(tm)
		if err != nil {
			t.Fatal(err)
		}
		f, err := acc.FPL(tm)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := acc.TPL(tm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b-bpl[tm-1]) > 1e-12 || math.Abs(f-fpl[tm-1]) > 1e-12 || math.Abs(tp-tpl[tm-1]) > 1e-12 {
			t.Errorf("t=%d: accountant (%v,%v,%v) vs batch (%v,%v,%v)",
				tm, b, f, tp, bpl[tm-1], fpl[tm-1], tpl[tm-1])
		}
	}
	// TPLRange answers every t exactly as TPL does, the tail included.
	for from := 1; from <= len(eps); from++ {
		got, err := acc.TPLRange(from, len(eps))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if want, _ := acc.TPL(from + i); v != want {
				t.Errorf("TPLRange(%d, %d)[%d] = %v, TPL says %v", from, len(eps), i, v, want)
			}
		}
	}
}

func TestAccountantFPLGrowsWithNewReleases(t *testing.T) {
	// Example 3: when a new release happens, FPL at earlier time points
	// is updated upward.
	acc := NewAccountant(nil, markov.ModerateExample())
	if _, err := acc.Observe(0.1); err != nil {
		t.Fatal(err)
	}
	f1, err := acc.FPL(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := acc.Observe(0.1); err != nil {
			t.Fatal(err)
		}
	}
	f1later, err := acc.FPL(1)
	if err != nil {
		t.Fatal(err)
	}
	if f1later <= f1 {
		t.Errorf("FPL(1) did not grow: %v -> %v", f1, f1later)
	}
}

func TestAccountantBPLStableUnderNewReleases(t *testing.T) {
	// BPL at a past time point depends only on the past: new releases
	// must not change it.
	acc := NewAccountant(markov.ModerateExample(), nil)
	for i := 0; i < 3; i++ {
		if _, err := acc.Observe(0.1); err != nil {
			t.Fatal(err)
		}
	}
	b2, err := acc.BPL(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := acc.Observe(0.1); err != nil {
			t.Fatal(err)
		}
	}
	b2later, err := acc.BPL(2)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b2later {
		t.Errorf("BPL(2) changed: %v -> %v", b2, b2later)
	}
}

func TestAccountantMaxTPLAndUserLevel(t *testing.T) {
	acc := NewAccountant(markov.ModerateExample(), markov.ModerateExample())
	eps := UniformBudgets(0.1, 10)
	for _, e := range eps {
		if _, err := acc.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := acc.MaxTPL()
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuantifier(markov.ModerateExample())
	want, _ := MaxTPL(q, q, eps)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxTPL = %v, want %v", got, want)
	}
	if ul := acc.UserLevel(); math.Abs(ul-1.0) > 1e-12 {
		t.Errorf("UserLevel = %v, want 1.0", ul)
	}
}

func TestAccountantEmpty(t *testing.T) {
	acc := NewAccountant(nil, nil)
	if acc.T() != 0 {
		t.Error("fresh accountant should have T=0")
	}
	v, err := acc.MaxTPL()
	if err != nil || v != 0 {
		t.Errorf("empty MaxTPL = %v/%v", v, err)
	}
	if _, err := acc.TPL(1); err == nil {
		t.Error("TPL on empty accountant should fail")
	}
	if got, err := acc.TPLRange(1, 0); err != nil || got == nil || len(got) != 0 {
		t.Errorf("empty TPLRange = %v/%v, want an empty series", got, err)
	}
	for _, rg := range [][2]int{{0, 0}, {1, 1}, {2, 0}} {
		if _, err := acc.TPLRange(rg[0], rg[1]); err == nil {
			t.Errorf("TPLRange(%d, %d) on empty accountant accepted", rg[0], rg[1])
		}
	}
}

func TestAccountantValidation(t *testing.T) {
	acc := NewAccountant(nil, nil)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := acc.Observe(bad); err == nil {
			t.Errorf("Observe(%v) should fail", bad)
		}
	}
	if _, err := acc.Observe(0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.BPL(0); err == nil {
		t.Error("t=0 should fail")
	}
	if _, err := acc.FPL(2); err == nil {
		t.Error("t beyond T should fail")
	}
}

func TestAccountantWEvent(t *testing.T) {
	acc := NewAccountant(markov.ModerateExample(), markov.ModerateExample())
	eps := UniformBudgets(0.1, 5)
	for _, e := range eps {
		if _, err := acc.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := acc.WEvent(5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 { // full window == user level == sum
		t.Errorf("WEvent(5) = %v, want 0.5", got)
	}
}

func TestAccountantWindowTPL(t *testing.T) {
	acc := NewAccountant(markov.ModerateExample(), markov.ModerateExample())
	eps := []float64{0.1, 0.2, 0.3, 0.4}
	for _, e := range eps {
		if _, err := acc.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	// Single-point window equals event-level TPL.
	one, err := acc.WindowTPL(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := acc.TPL(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one-want) > 1e-12 {
		t.Errorf("WindowTPL(2,2) = %v, want TPL(2) = %v", one, want)
	}
	// Full window equals user-level (Corollary 1).
	full, err := acc.WindowTPL(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-1.0) > 1e-12 {
		t.Errorf("WindowTPL(1,4) = %v, want sum 1.0", full)
	}
	// The max over all w-windows matches WEvent.
	for w := 1; w <= 4; w++ {
		worst := 0.0
		for from := 1; from+w-1 <= 4; from++ {
			v, err := acc.WindowTPL(from, from+w-1)
			if err != nil {
				t.Fatal(err)
			}
			worst = math.Max(worst, v)
		}
		we, err := acc.WEvent(w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(worst-we) > 1e-12 {
			t.Errorf("w=%d: scan %v vs WEvent %v", w, worst, we)
		}
	}
	// Validation.
	if _, err := acc.WindowTPL(3, 2); err == nil {
		t.Error("empty window should fail")
	}
	if _, err := acc.WindowTPL(0, 2); err == nil {
		t.Error("from=0 should fail")
	}
	if _, err := acc.WindowTPL(1, 9); err == nil {
		t.Error("to beyond T should fail")
	}
}

func TestAccountantBudgetsCopy(t *testing.T) {
	acc := NewAccountant(nil, nil)
	if _, err := acc.Observe(0.1); err != nil {
		t.Fatal(err)
	}
	b := acc.Budgets()
	b[0] = 99
	if got := acc.Budgets()[0]; got != 0.1 {
		t.Error("Budgets exposes internal state")
	}
}

func TestAccountantFromQuantifiers(t *testing.T) {
	q := NewQuantifier(markov.ModerateExample())
	acc := NewAccountantFromQuantifiers(q, q)
	if _, err := acc.Observe(0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Observe(0.1); err != nil {
		t.Fatal(err)
	}
	tp, err := acc.TPL(1)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0.1 {
		t.Errorf("TPL(1) = %v, should exceed eps under correlation", tp)
	}
}
