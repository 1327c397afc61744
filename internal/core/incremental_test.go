package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/markov"
)

// countingLoss is a call-counting loss stub: a saturating loss function
// (L(alpha) = min(alpha/2, 1)) whose fixed point the FPL recurrence
// reaches after a few steps, so the incremental refresh has a cached
// prefix to reuse. It stands in for a quantifier through the
// accountant's lossQuantifier seam.
type countingLoss struct {
	calls int
}

func (c *countingLoss) LossValue(alpha float64) float64 {
	c.calls++
	return math.Min(alpha/2, 1)
}

// TestAccountantFPLRefreshIncremental is the regression test for the
// O(T)-per-read refresh: after the first full computation, an Observe
// append must cost O(appends + saturation tail) loss evaluations on the
// next read, not a full O(T) series recompute. The budgets never repeat,
// so neither does the forward series (FPL(t) = 1 + eps_t once L
// saturates) and the forward-loss memo never answers: every count below
// is the refresh's own.
func TestAccountantFPLRefreshIncremental(t *testing.T) {
	const T = 500
	stub := &countingLoss{}
	acc := &Accountant{qb: &countingLoss{}, qf: stub}
	eps := 2.0
	observe := func() {
		t.Helper()
		eps += 1.0 / 1024
		if _, err := acc.Observe(eps); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < T; i++ {
		observe()
	}
	if _, err := acc.TPL(1); err != nil { // first read: full backward sweep
		t.Fatal(err)
	}
	full := stub.calls
	if full < T-2 {
		t.Fatalf("first refresh made %d loss calls, expected ~%d (sanity)", full, T-1)
	}

	// One append + read: the recurrence saturates (L caps at 1, so
	// fpl[t] = 1 + eps_t for every t at least two steps from the tail)
	// and the refresh must stop as soon as it reproduces a cached value.
	stub.calls = 0
	observe()
	if _, err := acc.TPL(1); err != nil {
		t.Fatal(err)
	}
	if stub.calls > 8 {
		t.Fatalf("refresh after one append made %d loss calls, want O(1), not O(T)=%d", stub.calls, T)
	}

	// A batch of appends costs O(batch), not O(T).
	stub.calls = 0
	for i := 0; i < 10; i++ {
		observe()
	}
	if _, err := acc.MaxTPL(); err != nil {
		t.Fatal(err)
	}
	if stub.calls > 24 {
		t.Fatalf("refresh after 10 appends made %d loss calls, want O(10), not O(T)", stub.calls)
	}

	// Reads with no intervening append must not evaluate at all.
	stub.calls = 0
	for tm := 1; tm <= acc.T(); tm++ {
		if _, err := acc.FPL(tm); err != nil {
			t.Fatal(err)
		}
	}
	if stub.calls != 0 {
		t.Fatalf("clean reads made %d loss calls, want 0", stub.calls)
	}
}

// TestAccountantIncrementalMatchesBatch drives a real correlated
// accountant through interleaved appends and reads and checks every
// intermediate FPL value against a from-scratch batch recompute — the
// incremental refresh is an optimization, not an approximation.
func TestAccountantIncrementalMatchesBatch(t *testing.T) {
	pf := markov.Fig7Forward()
	acc := NewAccountant(markov.Fig7Backward(), pf)
	qf := NewQuantifier(pf)
	var eps []float64
	budget := []float64{0.1, 0.3, 0.05, 0.2, 0.15}
	for i := 0; i < 40; i++ {
		e := budget[i%len(budget)]
		eps = append(eps, e)
		if _, err := acc.Observe(e); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 { // interleave reads to exercise partial caches
			continue
		}
		want, err := FPLSeries(qf, eps)
		if err != nil {
			t.Fatal(err)
		}
		for tm := 1; tm <= len(eps); tm++ {
			got, err := acc.FPL(tm)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[tm-1] {
				t.Fatalf("T=%d: FPL(%d) = %v, batch %v", len(eps), tm, got, want[tm-1])
			}
		}
	}
}

// TestAccountantLongHorizonSaturates demonstrates why the incremental
// refresh pays: under a bounded-supremum correlation the FPL series
// saturates, so per-append refresh cost is flat in T.
func TestAccountantLongHorizonSaturates(t *testing.T) {
	stub := &countingLoss{}
	acc := &Accountant{qb: &countingLoss{}, qf: stub}
	const T = 2000
	worstDelta := 0
	for i := 0; i < T; i++ {
		if _, err := acc.Observe(2); err != nil {
			t.Fatal(err)
		}
		stub.calls = 0
		if _, err := acc.FPL(1); err != nil {
			t.Fatal(err)
		}
		if i >= 10 { // skip the initial sweeps while the cache warms up
			if stub.calls > worstDelta {
				worstDelta = stub.calls
			}
		}
	}
	if worstDelta > 8 {
		t.Fatalf("worst per-append refresh cost %d loss calls, want flat in T", worstDelta)
	}
}

// TestFirstRefreshCostsDistinctValues: under a constant budget the
// forward series reaches its fixed point (3, with L capped at 1) one
// step below the tail, so a refresh from an empty cache — what every
// read after a restore starts with — evaluates the loss once per
// distinct value the series takes, not once per step.
func TestFirstRefreshCostsDistinctValues(t *testing.T) {
	const T = 5000
	stub := &countingLoss{}
	acc := &Accountant{qb: &countingLoss{}, qf: stub}
	for i := 0; i < T; i++ {
		if _, err := acc.Observe(2); err != nil {
			t.Fatal(err)
		}
	}
	fpl := acc.refreshFPL()
	distinct := make(map[float64]bool)
	for _, v := range fpl {
		distinct[v] = true
	}
	if stub.calls > len(distinct) {
		t.Fatalf("first refresh of %d constant-budget steps made %d loss calls, want at most %d (distinct values)", T, stub.calls, len(distinct))
	}
}

// TestFPLRefreshMatchesBatch pins the forward-loss memo as pure
// memoization: under budget sequences that make it hit (a constant
// budget, a change after a long plateau, a 2-cycle) and one that makes
// it miss (random budgets), the incrementally refreshed series equals
// the batch FPLSeries, and TPLRange the batch TPLSeries, bit for bit —
// after a first refresh over the whole history and after reads
// interleaved with appends.
func TestFPLRefreshMatchesBatch(t *testing.T) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	qb, qf := NewQuantifier(pb), NewQuantifier(pf)
	const T = 600
	rng := rand.New(rand.NewSource(27))
	cases := map[string]func(i int) float64{
		"constant": func(int) float64 { return 0.1 },
		"plateau-then-change": func(i int) float64 {
			if i < 2*T/3 {
				return 0.1
			}
			return 0.35
		},
		"two-cycle": func(i int) float64 { return []float64{0.1, 0.4}[i%2] },
		"random":    func(int) float64 { return 0.01 + rng.Float64() },
	}
	for name, budget := range cases {
		t.Run(name, func(t *testing.T) {
			check := func(acc *Accountant, eps []float64) {
				t.Helper()
				wantF, err := FPLSeries(qf, eps)
				if err != nil {
					t.Fatal(err)
				}
				wantT, err := TPLSeries(qb, qf, eps)
				if err != nil {
					t.Fatal(err)
				}
				gotF := acc.refreshFPL()
				gotT, err := acc.TPLRange(1, len(eps))
				if err != nil {
					t.Fatal(err)
				}
				for i := range eps {
					if math.Float64bits(gotF[i]) != math.Float64bits(wantF[i]) {
						t.Fatalf("T=%d: FPL(%d) = %v, batch %v", len(eps), i+1, gotF[i], wantF[i])
					}
					if math.Float64bits(gotT[i]) != math.Float64bits(wantT[i]) {
						t.Fatalf("T=%d: TPL(%d) = %v, batch %v", len(eps), i+1, gotT[i], wantT[i])
					}
				}
			}
			whole := NewAccountantFromQuantifiers(qb, qf) // one refresh at the end
			step := NewAccountantFromQuantifiers(qb, qf)  // reads between appends
			var eps []float64
			for i := 0; i < T; i++ {
				e := budget(i)
				eps = append(eps, e)
				for _, acc := range []*Accountant{whole, step} {
					if _, err := acc.Observe(e); err != nil {
						t.Fatal(err)
					}
				}
				if i%37 == 0 || i > T-4 {
					check(step, eps)
				}
			}
			check(whole, eps)
		})
	}
}
