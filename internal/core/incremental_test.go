package core

import (
	"math"
	"reflect"
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
// next read, not a full O(T) series recompute.
func TestAccountantFPLRefreshIncremental(t *testing.T) {
	const T = 500
	stub := &countingLoss{}
	acc := &Accountant{qb: &countingLoss{}, qf: stub}
	for i := 0; i < T; i++ {
		if _, err := acc.Observe(2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := acc.TPL(1); err != nil { // first read: full backward sweep
		t.Fatal(err)
	}
	full := stub.calls
	if full < T-2 {
		t.Fatalf("first refresh made %d loss calls, expected ~%d (sanity)", full, T-1)
	}

	// One append + read: the recurrence saturates (L caps at 1, so
	// fpl[t] = 3 for every t at least two steps from the tail) and the
	// refresh must stop as soon as it reproduces a cached value.
	stub.calls = 0
	if _, err := acc.Observe(2); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.TPL(1); err != nil {
		t.Fatal(err)
	}
	if stub.calls > 8 {
		t.Fatalf("refresh after one append made %d loss calls, want O(1), not O(T)=%d", stub.calls, T)
	}

	// A batch of appends costs O(batch), not O(T).
	stub.calls = 0
	for i := 0; i < 10; i++ {
		if _, err := acc.Observe(2); err != nil {
			t.Fatal(err)
		}
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

// TestFPLSinceFindsTheChangedSuffix: between captures the cached
// forward series is refreshed in place, and FPLSince, given only an
// earlier capture's tail, finds exactly where the series changed when
// the two rejoin inside that tail (and falls back to 0 otherwise), so
// the earlier series' prefix plus the returned suffix is the current
// series, and the tail it returns for the next capture is the current
// series' tail. Every refresh equals the batch FPLSeries bit for bit.
func TestFPLSinceFindsTheChangedSuffix(t *testing.T) {
	pf, err := markov.New(markov.Fig7Forward().P())
	if err != nil {
		t.Fatal(err)
	}
	for _, tailLen := range []int{2, 8, 1024} {
		acc := NewAccountant(nil, pf)
		var eps, prev []float64
		tail := acc.FPLTail(tailLen)
		for round := 0; round < 80; round++ {
			for i := 0; i < 1+round%5; i++ {
				e := 0.05 + 0.01*float64((round*7+i)%9)
				eps = append(eps, e)
				if _, err := acc.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			if round%4 != 3 {
				if _, err := acc.FPL(1); err != nil { // refresh
					t.Fatal(err)
				}
				want, err := FPLSeries(NewQuantifier(pf), eps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got, _ := acc.FPL(i + 1); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("tail %d round %d: FPL(%d) = %v, batch series says %v", tailLen, round, i+1, got, want[i])
					}
				}
			}
			cur := acc.Snapshot().FPL
			from, suffix, next := acc.FPLSince(tail, tailLen)
			exact := 0 // the first index where prev and cur differ
			for exact < min(len(prev), len(cur)) && math.Float64bits(prev[exact]) == math.Float64bits(cur[exact]) {
				exact++
			}
			want := 0
			if exact > tail.Off {
				want = exact // the rejoin point lies inside the tail
			}
			if next.T != len(cur) || from != want {
				t.Fatalf("tail %d round %d: FPLSince = (%d, %d), want (%d, %d)", tailLen, round, next.T, from, len(cur), want)
			}
			if off := max(0, len(cur)-tailLen); next.Off != off || !reflect.DeepEqual(next.Vals, cur[off:]) {
				t.Fatalf("tail %d round %d: next tail (%d, %v), want (%d, %v)", tailLen, round, next.Off, next.Vals, off, cur[off:])
			}
			rebuilt := append(append([]float64(nil), prev[:from]...), suffix...)
			if len(rebuilt) != len(cur) {
				t.Fatalf("tail %d round %d: prefix + suffix has %d values, series %d", tailLen, round, len(rebuilt), len(cur))
			}
			for i := range cur {
				if math.Float64bits(rebuilt[i]) != math.Float64bits(cur[i]) {
					t.Fatalf("tail %d round %d: prefix + suffix differs at %d", tailLen, round, i)
				}
			}
			prev = cur
			tail = next
		}
	}
}
