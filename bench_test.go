// Benchmarks regenerating every table and figure of the paper's
// evaluation. Run all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark times one full regeneration of its experiment at
// CI-friendly parameter scales (the -full paper scales are available via
// cmd/tplbench). The Fig5 benchmarks are the paper's own subject matter:
// BenchmarkFig5_Algorithm1_* vs BenchmarkFig5_Simplex_* is the runtime
// comparison of Fig. 5, with the dense simplex standing in for
// Gurobi/lp_solve.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/markov"
	"repro/internal/mechanism"
	"repro/internal/release"
	"repro/internal/stream"
)

// BenchmarkFig3 regenerates the BPL/FPL/TPL series of Fig. 3
// (eps = 0.1, T = 10, three correlation levels).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig3(0.1, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the four max-BPL-over-time panels of Fig. 4
// with their Theorem-5 suprema (T = 100).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := expt.Fig4(100)
		if err != nil {
			b.Fatal(err)
		}
		if v := expt.Fig4Verify(panels); v > 1e-6 {
			b.Fatalf("supremum violation %v", v)
		}
	}
}

// fig5Sizes are the per-solver problem sizes for the Fig. 5 benchmarks.
// Algorithm 1 runs at the paper's n = 50; the simplex baseline runs at
// n = 8 because — as the paper reports for lp_solve and Gurobi — it is
// orders of magnitude slower and would not finish at n = 50 in a
// benchmark loop. Compare ns/op per pair-program solved.
const (
	fig5Alg1N    = 50
	fig5SimplexN = 8
)

// BenchmarkFig5_Algorithm1_N times one full-matrix quantification
// (all ordered row pairs) with Algorithm 1 at alpha = 10, Fig. 5(a) —
// the naive per-evaluation scan, the paper's original route.
func BenchmarkFig5_Algorithm1_N(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, err := markov.UniformRandom(rng, fig5Alg1N)
	if err != nil {
		b.Fatal(err)
	}
	qt := core.NewQuantifier(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = qt.LossNaive(10)
	}
}

// BenchmarkFig5_Compiled_N times the same quantification through the
// compiled leakage engine (compilation amortized outside the loop) —
// the route every production path now takes. Compare against
// BenchmarkFig5_Algorithm1_N; see also BenchmarkEngineLoss and
// BenchmarkEngineCompile in internal/core.
func BenchmarkFig5_Compiled_N(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, err := markov.UniformRandom(rng, fig5Alg1N)
	if err != nil {
		b.Fatal(err)
	}
	qt := core.NewQuantifier(c)
	qt.Engine() // compile once outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = qt.LossValue(10)
	}
}

// BenchmarkFig5_Simplex_N times the same quantification through the
// Charnes-Cooper LP + simplex route (the external-solver stand-in),
// Fig. 5(a). Note the much smaller n.
func BenchmarkFig5_Simplex_N(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts, err := expt.Fig5N(rng, nil, []int{fig5SimplexN}, 10)
	if err != nil {
		b.Fatal(err)
	}
	_ = pts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig5N(rng, nil, []int{fig5SimplexN}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_Algorithm1_Alpha sweeps the prior leakage alpha at fixed
// n, Fig. 5(b): runtime grows with alpha and then flattens.
func BenchmarkFig5_Algorithm1_Alpha(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, err := markov.UniformRandom(rng, fig5Alg1N)
	if err != nil {
		b.Fatal(err)
	}
	qt := core.NewQuantifier(c)
	alphas := []float64{0.001, 0.01, 0.1, 1, 10, 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range alphas {
			_ = qt.LossNaive(a)
		}
	}
}

// BenchmarkFig6 regenerates one eps = 1 panel of Fig. 6 at reduced
// scale (n = 30, T = 15, three correlation strengths).
func BenchmarkFig6(b *testing.B) {
	configs := []expt.Fig6Config{
		{S: 0, N: 30, Eps: 1},
		{S: 0.005, N: 30, Eps: 1},
		{S: 0.05, N: 30, Eps: 1},
	}
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		if _, err := expt.Fig6(rng, configs, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the budget-allocation comparison of Fig. 7
// (alpha = 1, T = 30): both planners plus the realized TPL series.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig7(1, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8a regenerates the utility-vs-T comparison of Fig. 8(a)
// (alpha = 2, s = 0.001, n = 30, T in {5, 10, 50}).
func BenchmarkFig8a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		if _, err := expt.Fig8T(rng, 2, 0.001, 30, []int{5, 10, 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8b regenerates the utility-vs-s comparison of Fig. 8(b)
// (alpha = 2, T = 10, n = 30, s in {0.01, 0.1, 1}).
func BenchmarkFig8b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		if _, _, err := expt.Fig8S(rng, 2, 10, 30, []float64{0.01, 0.1, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates the privacy-guarantee comparison of
// Table II (eps = 0.1, T = 10, w = 3).
func BenchmarkTableII(b *testing.B) {
	chain := markov.Fig7Backward()
	for i := 0; i < b.N; i++ {
		if _, err := expt.TableII(chain, 0.1, 10, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLossParallelNaive compares the naive sequential and parallel
// full-matrix quantification at n = 100 against the compiled engine
// (the Fig. 5(a) regime). The naive fan-out used to be the fast path;
// the engine makes both reference scans look stationary.
func BenchmarkLossParallelNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, err := markov.UniformRandom(rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	qt := core.NewQuantifier(c)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = qt.LossNaive(10)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = qt.LossParallelNaive(10, 0)
		}
	})
	b.Run("engine", func(b *testing.B) {
		qt.Engine() // compile outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = qt.LossValue(10)
		}
	})
}

// BenchmarkPairLoss micro-benchmarks the inner kernel of Algorithm 1 on
// one row pair at n = 200 (supporting the Fig. 5 discussion: the
// per-pair cost is O(n^2) worst case, near-linear typically).
func BenchmarkPairLoss(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, err := markov.UniformRandom(rng, 200)
	if err != nil {
		b.Fatal(err)
	}
	q, d := c.Row(0), c.Row(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.PairLoss(q, d, 10)
	}
}

// serverBenchDomain is the value-domain size of the Collect benchmarks
// (a small location grid; the accounting cost per update is O(domain^2)
// pairs, the ingestion cost O(users)).
const serverBenchDomain = 5

// serverBenchModels builds a population of `users` adversary models
// drawn from `distinct` correlation classes (chain pointers shared
// within a class, contents distinct across classes).
func serverBenchModels(b *testing.B, users, distinct int) []stream.AdversaryModel {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	chains := make([]*markov.Chain, distinct)
	for k := range chains {
		c, err := markov.Smoothed(rng, serverBenchDomain, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		chains[k] = c
	}
	models := make([]stream.AdversaryModel, users)
	for i := range models {
		c := chains[i%distinct]
		models[i] = stream.AdversaryModel{Backward: c, Forward: c}
	}
	return models
}

// serverBenchValues is one time step's database.
func serverBenchValues(users int) []int {
	values := make([]int, users)
	for i := range values {
		values[i] = i % serverBenchDomain
	}
	return values
}

// BenchmarkServerCollect measures one full collection step (snapshot,
// Laplace release, leakage accounting) at population scale: N users
// declaring K distinct adversary models. With cohort-sharded
// accounting a step costs K accountant updates instead of N, so the
// K=10 rows are nearly flat in N; the numbers are recorded in
// DESIGN.md §4.
func BenchmarkServerCollect(b *testing.B) {
	for _, bc := range []struct{ users, models int }{
		{1000, 10},
		{100000, 10},
		{100000, 1000},
		{1000000, 10},
	} {
		b.Run(fmt.Sprintf("users=%d/models=%d", bc.users, bc.models), func(b *testing.B) {
			models := serverBenchModels(b, bc.users, bc.models)
			s, err := stream.NewServer(serverBenchDomain, bc.users, models, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			values := serverBenchValues(bc.users)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Collect(values, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerCollectPerUserLoop reproduces the seed's pre-cohort
// accounting path at 100k users / 10 distinct models — snapshot, noise,
// then one Observe per *user* — as the baseline BenchmarkServerCollect
// is compared against (TestCohortDedup proves the leakage numbers are
// identical).
func BenchmarkServerCollectPerUserLoop(b *testing.B) {
	const users, distinct = 100000, 10
	models := serverBenchModels(b, users, distinct)
	accs := make([]*core.Accountant, users)
	for i, m := range models {
		accs[i] = core.NewAccountant(m.Backward, m.Forward)
	}
	values := serverBenchValues(users)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := mechanism.NewSnapshot(serverBenchDomain, values)
		if err != nil {
			b.Fatal(err)
		}
		lap, err := mechanism.NewLaplace(0.1, 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		_ = lap.ReleaseCounts(snap.Histogram())
		for _, acc := range accs {
			if _, err := acc.Observe(0.1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAccountantObserve micro-benchmarks the online accountant's
// per-release cost (n = 20 chain, amortized BPL update).
func BenchmarkAccountantObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, err := markov.Smoothed(rng, 20, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	acc := core.NewAccountant(c, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Observe(0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanners micro-benchmarks the two release planners at
// alpha = 1, T = 20 on the Fig. 7 correlations.
func BenchmarkPlanners(b *testing.B) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	b.Run("UpperBound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := release.UpperBound(pb, pf, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Quantified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := release.Quantified(pb, pf, 1, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPlanners regenerates the planner ablation (group-DP
// bundle vs Algorithm 2 vs Algorithm 3 across correlation strengths;
// the Section I comparison made quantitative).
func BenchmarkAblationPlanners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		if _, err := expt.AblationPlanners(rng, 2, 30, 10, []float64{0, 0.01, 0.1, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSolvers regenerates the per-pair LFP solver ablation
// (Algorithm 1's Theorem-4 filter vs Dinkelbach's parametric iteration
// vs the Charnes-Cooper simplex — the paper's Appendix machinery as
// runnable code).
func BenchmarkAblationSolvers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		if _, err := expt.AblationSolvers(rng, []int{5, 10, 20}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupremum times the Theorem-5 supremum search (closed-form
// accelerated fixed-point iteration) on the Fig. 4(a) configuration.
func BenchmarkSupremum(b *testing.B) {
	qt := core.NewQuantifier(markov.Fig4aExample())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.Supremum(qt, 0.23); !ok {
			b.Fatal("supremum should exist")
		}
	}
}

// BenchmarkWEventPlanner times the w-event budget planner (bisection
// with two supremum searches per probe) at w = 5.
func BenchmarkWEventPlanner(b *testing.B) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	for i := 0; i < b.N; i++ {
		if _, err := release.WEvent(pb, pf, 1, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeNoise times the mean-noise local search at T = 8 on
// the Fig. 7 correlations (one sweep).
func BenchmarkOptimizeNoise(b *testing.B) {
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	for i := 0; i < b.N; i++ {
		if _, err := release.OptimizeNoise(pb, pf, 1, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactAdversary times the exhaustive output-enumeration
// leakage computation at 2 outputs x 10 steps (1024 sequences).
func BenchmarkExactAdversary(b *testing.B) {
	mech, err := adversary.RandomizedResponse(0.3, 2)
	if err != nil {
		b.Fatal(err)
	}
	mechs := make([]*adversary.DiscreteMechanism, 10)
	for i := range mechs {
		mechs[i] = mech
	}
	chain := markov.ModerateExample()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adversary.ExactBPL(chain, mechs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaumWelch times one EM fit of the unsupervised correlation
// learner (Section III-A's Baum-Welch route) on 5 sequences of 200
// observations over a 3-state, 4-symbol model.
func BenchmarkBaumWelch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	truth, err := markov.RandomHMM(rng, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	var seqs [][]int
	for i := 0; i < 5; i++ {
		_, obs, err := truth.Sample(rng, 200)
		if err != nil {
			b.Fatal(err)
		}
		seqs = append(seqs, obs)
	}
	start, err := markov.RandomHMM(rng, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := start.BaumWelch(seqs, 20, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotBenchServer builds a stepped server at population scale for
// the durability benchmarks: N users over 10 correlation classes, T=32
// published steps of history.
func snapshotBenchServer(b *testing.B, users int) *stream.Server {
	b.Helper()
	models := serverBenchModels(b, users, 10)
	s, err := stream.NewServer(serverBenchDomain, users, models, nil)
	if err != nil {
		b.Fatal(err)
	}
	values := serverBenchValues(users)
	for t := 0; t < 32; t++ {
		if _, err := s.Collect(values, 0.1); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkSnapshot measures capturing a server's full state — the
// coalesced cost the service pays every -snapshot-every steps. The
// dominant term at scale is copying the per-user cohort map, so ns/op
// grows linearly in users while journal appends (per step) stay O(domain).
func BenchmarkSnapshot(b *testing.B) {
	for _, users := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			s := snapshotBenchServer(b, users)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Snapshot()
			}
		})
	}
}

// BenchmarkRestore measures rebuilding a live server from a snapshot —
// the boot-time cost per session. The compiled-model cache is shared
// across iterations, as the registry shares it across sessions, so
// this times restore proper, not engine compilation.
func BenchmarkRestore(b *testing.B) {
	for _, users := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			st := snapshotBenchServer(b, users).Snapshot()
			cache := stream.NewModelCache()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stream.RestoreServer(st, stream.RestoreOptions{Cache: cache}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
