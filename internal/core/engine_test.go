package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/markov"
	"repro/internal/matrix"
)

// engineAlphas is the prior-leakage probe grid of the differential
// tests: tiny, moderate, large and huge values, including the Fig. 5(b)
// range and the divergent-BPL regime far beyond it.
var engineAlphas = []float64{1e-9, 1e-3, 0.05, 0.3, 1, 2.5, 7, 20, 80, 400}

// diffLoss asserts that the compiled engine and the naive pair scan
// agree on a chain across the alpha grid: the loss values to within
// 1e-12 relative, and the reported maximizing pair must reproduce its
// own loss through the independent PairLoss kernel.
func diffLoss(t *testing.T, c *markov.Chain, label string) {
	t.Helper()
	qt := NewQuantifier(c)
	for _, alpha := range engineAlphas {
		naive := qt.LossNaive(alpha)
		eng := qt.Loss(alpha)
		if math.Abs(eng.Log-naive.Log) > 1e-12*(1+naive.Log) {
			t.Fatalf("%s alpha=%g: engine loss %v, naive %v (diff %g)",
				label, alpha, eng.Log, naive.Log, eng.Log-naive.Log)
		}
		if (eng.RowQ < 0) != (naive.RowQ < 0) {
			t.Fatalf("%s alpha=%g: engine pair (%d,%d), naive (%d,%d)",
				label, alpha, eng.RowQ, eng.RowD, naive.RowQ, naive.RowD)
		}
		if eng.RowQ >= 0 {
			// The engine may report a different maximizing pair than the
			// scan when several pairs tie, but whatever pair it reports
			// must attain the maximum and carry that pair's true sums.
			pr := PairLoss(c.Row(eng.RowQ), c.Row(eng.RowD), alpha)
			if math.Abs(pr.Log-eng.Log) > 1e-12*(1+eng.Log) {
				t.Fatalf("%s alpha=%g: reported pair (%d,%d) recomputes to %v, engine says %v",
					label, alpha, eng.RowQ, eng.RowD, pr.Log, eng.Log)
			}
			if math.Abs(pr.QSum-eng.QSum) > 1e-9 || math.Abs(pr.DSum-eng.DSum) > 1e-9 {
				t.Fatalf("%s alpha=%g: pair sums (%v,%v) vs recomputed (%v,%v)",
					label, alpha, eng.QSum, eng.DSum, pr.QSum, pr.DSum)
			}
		}
	}
}

func TestEngineMatchesNaiveDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(24)
		c, err := markov.UniformRandom(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		diffLoss(t, c, "dense")
	}
}

// sparseChain builds a road-network-style chain: each state transitions
// to at most deg random successors, everything else exactly zero.
func sparseChain(t *testing.T, rng *rand.Rand, n, deg int) *markov.Chain {
	t.Helper()
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(deg)
		for _, j := range rng.Perm(n)[:k] {
			m.Set(i, j, rng.Float64()+0.05)
		}
	}
	if err := m.NormalizeRows(); err != nil {
		t.Fatal(err)
	}
	c, err := markov.New(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEngineMatchesNaiveSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(30)
		c := sparseChain(t, rng, n, 3)
		diffLoss(t, c, "sparse")
	}
}

func TestEngineMatchesNaiveStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(903))
	id, err := markov.IdentityChain(5)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := markov.UniformChain(5)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := markov.Strongest(rng, 7)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := markov.Lazy(6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-column chains: some states are never entered, so whole
	// columns of the transition matrix vanish.
	zeroCol, err := markov.FromRows([][]float64{
		{0.5, 0.5, 0},
		{0.3, 0.7, 0},
		{1, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	pointMass, err := markov.FromRows([][]float64{
		{0, 1, 0},
		{0, 1, 0},
		{0, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		chain *markov.Chain
	}{
		{"identity", id},
		{"uniform", uni},
		{"permutation", perm},
		{"lazy", lazy},
		{"zero-column", zeroCol},
		{"point-mass", pointMass},
		{"fig2", markov.Fig2Forward()},
		{"fig4a", markov.Fig4aExample()},
		{"fig7", markov.Fig7Backward()},
		{"moderate", markov.ModerateExample()},
	} {
		diffLoss(t, tc.chain, tc.label)
	}
}

// TestEngineDeterministicAcrossCompiles pins the property the cohort
// and session caches rely on: compiling the same chain content twice —
// even from distinct Chain values — yields bit-identical loss results.
func TestEngineDeterministicAcrossCompiles(t *testing.T) {
	rng := rand.New(rand.NewSource(905))
	for trial := 0; trial < 10; trial++ {
		c, err := markov.UniformRandom(rng, 3+rng.Intn(20))
		if err != nil {
			t.Fatal(err)
		}
		clone, err := markov.New(c.P())
		if err != nil {
			t.Fatal(err)
		}
		a, b := NewQuantifier(c), NewQuantifier(clone)
		for _, alpha := range engineAlphas {
			ra, rb := a.Loss(alpha), b.Loss(alpha)
			if ra != rb {
				t.Fatalf("trial %d alpha=%g: %+v vs %+v from content-equal chains", trial, alpha, ra, rb)
			}
		}
	}
}

// TestEngineEnvelopeMonotone checks structural invariants of the
// compiled form: segment start points strictly increase from 0, and the
// evaluated loss is non-decreasing in alpha (Remark 1's monotonicity,
// which the binary-searched envelope must preserve across breakpoints).
func TestEngineEnvelopeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(906))
	for trial := 0; trial < 15; trial++ {
		c, err := markov.UniformRandom(rng, 2+rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		e := NewQuantifier(c).Engine()
		segs := e.segs
		if len(segs) == 0 {
			continue
		}
		if segs[0].alpha != 0 {
			t.Fatalf("first segment starts at %v, want 0", segs[0].alpha)
		}
		for i := 1; i < len(segs); i++ {
			if !(segs[i].alpha > segs[i-1].alpha) {
				t.Fatalf("segment starts not increasing: %v then %v", segs[i-1].alpha, segs[i].alpha)
			}
		}
		prev := 0.0
		for alpha := 0.01; alpha < 50; alpha *= 1.37 {
			v := e.EvalValue(alpha)
			if v < prev-1e-12 {
				t.Fatalf("loss not monotone: L(%v)=%v after %v", alpha, v, prev)
			}
			if v > alpha+1e-9 {
				t.Fatalf("loss %v exceeds alpha %v", v, alpha)
			}
			prev = v
		}
	}
}

func TestEngineStats(t *testing.T) {
	qt := NewQuantifier(markov.ModerateExample())
	st := qt.Engine().Stats()
	if st.N != 2 || st.Pairs == 0 || st.Curves == 0 || st.Segments == 0 {
		t.Fatalf("implausible stats %+v", st)
	}
	if st.Frontier > st.Curves || st.Segments > st.Frontier {
		t.Fatalf("pruning stats out of order: %+v", st)
	}
	var nilEng *Engine
	if nilEng.Stats() != (EngineStats{}) || nilEng.N() != 0 {
		t.Fatal("nil engine should report zero stats")
	}
	if r := nilEng.Eval(2); r.Log != 0 || r.RowQ != -1 {
		t.Fatalf("nil engine Eval = %+v", r)
	}
}

func TestEngineDominancePruning(t *testing.T) {
	// A strongly structured chain has many dominated pairs; the frontier
	// and envelope must be (much) smaller than the raw curve count.
	rng := rand.New(rand.NewSource(907))
	c, err := markov.Smoothed(rng, 30, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := NewQuantifier(c).Engine().Stats()
	if st.Frontier >= st.Curves {
		t.Fatalf("no dominance pruning happened: %+v", st)
	}
	if st.Segments > st.Frontier {
		t.Fatalf("envelope larger than frontier: %+v", st)
	}
}

// TestEngineSharedConcurrent races many goroutines over one lazily
// compiled quantifier — the sharing pattern of cohort-deduplicated
// accountants and the session registry (run under -race in CI).
func TestEngineSharedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(908))
	c, err := markov.UniformRandom(rng, 12)
	if err != nil {
		t.Fatal(err)
	}
	qt := NewQuantifier(c) // not compiled yet: first Loss calls race to compile
	want := NewQuantifier(c).Loss(1.5)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix direct evaluations with accountants sharing the same
			// quantifier, as cohorts do.
			acc := NewAccountantFromQuantifiers(qt, qt)
			for i := 0; i < 50; i++ {
				if got := qt.Loss(1.5); got != want {
					t.Errorf("goroutine %d: %+v != %+v", g, got, want)
					return
				}
				if _, err := acc.Observe(0.1); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := acc.MaxTPL(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestLossParallelMatchesSequential checks Loss on chains around
// compileThreshold, where engine compilation switches from one worker
// to a fan-out over GOMAXPROCS, against the sequential reference scan.
func TestLossParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, n := range []int{compileThreshold - 1, compileThreshold, compileThreshold + 9} {
		c, err := markov.UniformRandom(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		diffLoss(t, c, fmt.Sprintf("n=%d", n))
	}
}

func TestLossParallelNilAndZero(t *testing.T) {
	var qt *Quantifier
	if r := qt.Loss(1); r.Log != 0 || r.RowQ != -1 {
		t.Errorf("nil quantifier: %+v", r)
	}
	q := NewQuantifier(markov.ModerateExample())
	if r := q.Loss(0); r.Log != 0 {
		t.Errorf("alpha=0: %+v", r)
	}
}

// TestLossParallelDeterministicAcrossRuns recompiles a chain above
// compileThreshold on every run: the fanned-out compile must give the
// same result each time.
func TestLossParallelDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	c, err := markov.UniformRandom(rng, compileThreshold+9)
	if err != nil {
		t.Fatal(err)
	}
	first := NewQuantifier(c).Loss(2)
	for i := 0; i < 10; i++ {
		again := NewQuantifier(c).Loss(2)
		if again != first {
			t.Fatalf("run %d: nondeterministic result %+v vs %+v", i, again, first)
		}
	}
}
