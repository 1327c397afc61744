package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestNearestRank(t *testing.T) {
	samples := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := nearestRank(samples, c.p); got != c.want {
			t.Errorf("nearestRank(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// 100 samples: p99 is rank 99, leaving one sample above it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := nearestRank(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	// A failed request is +Inf and lies beyond every percentile.
	failed := []float64{1, 2, 3, math.Inf(1)}
	if got := nearestRank(failed, 75); got != 3 {
		t.Errorf("p75 with one failure = %v, want 3", got)
	}
	if got := nearestRank(failed, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with one failure of four = %v, want +Inf", got)
	}
	if got := nearestRank(nil, 50); !math.IsNaN(got) {
		t.Errorf("nearestRank of no samples = %v, want NaN", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes([]float64{100, 70, 40, 10})
	if want := []float64{30, 30, 30, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Self times always add back up to the outermost entry point.
	entry := []float64{262.4, 250.1, 245.2, 1.06, 1.0}
	sum := 0.0
	for _, v := range selfTimes(entry) {
		sum += v
	}
	if math.Abs(sum-entry[0]) > 1e-9 {
		t.Errorf("self times sum to %v, want %v", sum, entry[0])
	}
	// A deeper entry point measured slower than its caller shows up as
	// a negative self time, not clamped away.
	if got := selfTimes([]float64{5, 6}); got[0] != -1 {
		t.Errorf("selfTimes([5 6])[0] = %v, want -1", got[0])
	}
}

func TestMemoHitRatio(t *testing.T) {
	// Converging: steps 4 and 5 evaluate at 0.3, the argument of the
	// step before them; steps 1 to 3 see new arguments.
	if got := memoHitRatio([]float64{0.1, 0.2, 0.3, 0.3, 0.3, 0.3}); got != 0.4 {
		t.Errorf("converging series ratio = %v, want 0.4", got)
	}
	// A 2-cycle hits through the memo's second entry.
	if got := memoHitRatio([]float64{1, 2, 1, 2, 1}); got != 0.5 {
		t.Errorf("2-cycle ratio = %v, want 0.5", got)
	}
	// Never repeating: no hits.
	if got := memoHitRatio([]float64{1, 2, 3, 4, 5}); got != 0 {
		t.Errorf("distinct series ratio = %v, want 0", got)
	}
	if got := memoHitRatio([]float64{7}); got != 0 {
		t.Errorf("single step ratio = %v, want 0", got)
	}
}

func TestInputsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name]
		a, err := buildInputs(w, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildInputs(w, 42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildInputs(w, 43)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.keys, b.keys) {
			t.Errorf("%s: same seed gave different keys", name)
		}
		if reflect.DeepEqual(a.keys, c.keys) {
			t.Errorf("%s: different seeds gave the same keys", name)
		}
		seen := map[string]bool{}
		for _, ks := range a.keys {
			for _, k := range ks {
				if seen[k] {
					t.Fatalf("%s: key %q generated twice", name, k)
				}
				seen[k] = true
			}
		}
		differs := false
		for i := range a.sessions {
			sa, sb, sc := a.sessions[i], b.sessions[i], c.sessions[i]
			if !bytes.Equal(sa.create, sb.create) {
				t.Errorf("%s: same seed gave different create bodies", name)
			}
			for j := range sa.pool {
				if !bytes.Equal(sa.pool[j].body, sb.pool[j].body) {
					t.Errorf("%s: same seed gave different body %d", name, j)
				}
				differs = differs || !bytes.Equal(sa.pool[j].body, sc.pool[j].body)
			}
			for j := range sa.history {
				if !bytes.Equal(sa.history[j].body, sb.history[j].body) {
					t.Errorf("%s: same seed gave different history body %d", name, j)
				}
			}
		}
		if !differs {
			t.Errorf("%s: different seeds gave the same bodies", name)
		}
	}
}

func TestBodiesEncodeTheirSteps(t *testing.T) {
	in, err := buildInputs(workloads["durable-ingest"], 7)
	if err != nil {
		t.Fatal(err)
	}
	s := in.sessions[0]
	b := s.pool[0]
	lines := bytes.Split(bytes.TrimSuffix(b.body, []byte("\n")), []byte("\n"))
	if len(lines) != len(b.eps) || len(b.eps) != 16 {
		t.Fatalf("body has %d lines for %d budgets", len(lines), len(b.eps))
	}
	for i, counts := range b.counts {
		total := 0
		for _, c := range counts {
			if c < 0 {
				t.Fatalf("negative count %d", c)
			}
			total += c
		}
		if total != s.users || len(counts) != s.domain {
			t.Fatalf("step %d: %d bins summing to %d, want %d summing to %d", i, len(counts), total, s.domain, s.users)
		}
		if want := appendStepLine(nil, counts, b.eps[i]); !bytes.Equal(append(lines[i], '\n'), want) {
			t.Fatalf("line %d = %s, want %s", i, lines[i], want)
		}
	}
}
