package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of samples by
// the nearest-rank method: the smallest sample with at least p% of the
// samples at or below it, i.e. rank ceil(p/100·n) of the sorted
// samples. Failed requests are recorded as +Inf, so they sort last and
// count as beyond every percentile. It returns NaN for no samples.
func nearestRank(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median returns the median of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), the
// definition the benchmark's spreads are judged by. It needs at least
// two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// selfTimes turns the times of successively deeper entry points
// (outermost first; each includes the next) into each layer's self
// time: its own time minus the next-deeper entry point's. The deepest
// entry point's self time is its whole time.
func selfTimes(entry []float64) []float64 {
	self := make([]float64, len(entry))
	for i := range entry {
		self[i] = entry[i]
		if i+1 < len(entry) {
			self[i] -= entry[i+1]
		}
	}
	return self
}

// memoHitRatio derives the accountant's backward-loss memo hit ratio
// from a BPL series: step t (t >= 2) evaluates the loss at the previous
// BPL, and the two-entry memo answers when that argument equals one of
// the two before it. The ratio is over the T-1 steps that evaluate.
func memoHitRatio(bpl []float64) float64 {
	if len(bpl) < 2 {
		return 0
	}
	hits := 0
	for t := 1; t < len(bpl); t++ {
		arg := bpl[t-1]
		if (t >= 2 && bpl[t-2] == arg) || (t >= 3 && bpl[t-3] == arg) {
			hits++
		}
	}
	return float64(hits) / float64(len(bpl)-1)
}
