package core

import (
	"runtime"
	"sync"
)

// LossParallelNaive evaluates the loss function like LossNaive but fans
// the ordered row pairs out over the given number of workers (0 means
// GOMAXPROCS). Loss itself needs no such choice: the compiled engine
// parallelizes its one-time compilation above compileThreshold
// (engine.go). The result is deterministic and identical to LossNaive:
// ties between equal-loss pairs are broken toward the smallest
// (RowQ, RowD), which is also the order the sequential scan discovers
// them in.
//
// Like LossNaive this is a reference implementation, kept for
// differential tests and for the benchmarks that document what the
// compiled engine replaced (BenchmarkLossParallelNaive,
// BenchmarkEngineNaiveLoss).
func (qt *Quantifier) LossParallelNaive(alpha float64, workers int) LossResult {
	res := LossResult{RowQ: -1, RowD: -1}
	if qt == nil || alpha == 0 {
		return res
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || qt.n < 4 {
		return qt.LossNaive(alpha)
	}

	results := make([]LossResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := LossResult{RowQ: -1, RowD: -1}
			scratch := make([]int, 0, qt.n) // per-worker buffer
			// Stripe rows across workers; each worker scans all d-rows
			// for its q-rows, so pair ownership is disjoint.
			for i := w; i < qt.n; i += workers {
				for j := 0; j < qt.n; j++ {
					if i == j {
						continue
					}
					pr := pairLoss(qt.rows[i], qt.rows[j], alpha, scratch)
					if better(pr.Log, i, j, &local) {
						local.Log = pr.Log
						local.QSum = pr.QSum
						local.DSum = pr.DSum
						local.RowQ = i
						local.RowD = j
					}
				}
			}
			results[w] = local
		}(w)
	}
	wg.Wait()
	for _, r := range results {
		if r.RowQ < 0 {
			continue
		}
		if better(r.Log, r.RowQ, r.RowD, &res) {
			res = r
		}
	}
	return res
}

// better reports whether a candidate (log, rowQ, rowD) improves on the
// current best, with deterministic lexicographic tie-breaking.
func better(log float64, rowQ, rowD int, cur *LossResult) bool {
	if log > cur.Log {
		return true
	}
	if log < cur.Log || log == 0 {
		return false
	}
	if cur.RowQ < 0 {
		return true
	}
	if rowQ != cur.RowQ {
		return rowQ < cur.RowQ
	}
	return rowD < cur.RowD
}
