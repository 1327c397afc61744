// Command tplbench regenerates the tables and figures of the paper's
// evaluation (Section VI) plus the illustrative figures of Section III,
// printing the same rows/series the paper plots.
//
// Usage:
//
//	tplbench -fig all              # everything at quick sizes
//	tplbench -fig 5n -full         # Fig 5(a) at paper-scale parameters
//	tplbench -fig 7 -format csv    # CSV instead of aligned text
//	tplbench -fig all -format md   # the Markdown document EXPERIMENTS.md
//	                               # is generated from
//
// Figure ids: 1, 3, 4, 5n, 5a, 6, 7, 8t, 8s, table2, ablation,
// soundness, mixing, all, plus the opt-in perf smokes engine, persist
// and api (the wire-API ingest benchmark behind BENCH_api.json).
//
// Output renders through internal/report in any of its four formats
// (-format text, csv, md, json).
//
// The -full flag switches to the paper's parameter scales where they are
// feasible on one machine; the default "quick" scales preserve every
// qualitative shape while finishing in seconds. The simplex baseline of
// Fig 5 stands in for Gurobi/lp_solve (see DESIGN.md) and is always run
// at reduced n: the whole point of the figure is that it explodes.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/expt"
	"repro/internal/report"
	"repro/internal/version"
)

func main() {
	var (
		fig         = flag.String("fig", "all", "which figure/table to regenerate: 1,3,4,5n,5a,6,7,8t,8s,table2,ablation,soundness,mixing,engine,persist,api,all")
		full        = flag.Bool("full", false, "use paper-scale parameters where feasible (slower)")
		format      = flag.String("format", "", "output format: "+report.FormatNames()+" (default text)")
		seed        = flag.Int64("seed", 1, "seed for the synthetic-correlation generators")
		engineJSON  = flag.String("engine-json", "", "with -fig engine: also write the machine-readable benchmark to this path (BENCH_engine.json)")
		persistJSON = flag.String("persist-json", "", "with -fig persist: also write the machine-readable benchmark to this path (BENCH_persist.json)")
		apiJSON     = flag.String("api-json", "", "with -fig api: also write the machine-readable benchmark to this path (BENCH_api.json)")
		gate        = flag.String("gate", "", "perf-regression gate: comma-separated trajectory.json:fresh.json pairs; exits non-zero on regressions beyond -gate-tolerance")
		gateTol     = flag.Float64("gate-tolerance", 0, "relative regression tolerance for -gate (0 = default 0.15)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this path (pprof format)")
		showVer     = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("tplbench", version.String())
		return
	}
	if *gate != "" {
		if err := runGate(os.Stdout, *gate, *gateTol); err != nil {
			fmt.Fprintf(os.Stderr, "tplbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tplbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tplbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(os.Stdout, *fig, *full, *format, *seed, *engineJSON, *persistJSON, *apiJSON); err != nil {
		fmt.Fprintf(os.Stderr, "tplbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, fig string, full bool, format string, seed int64, engineJSON, persistJSON, apiJSON string) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
	}
	if engineJSON != "" && !strings.EqualFold(fig, "engine") {
		return fmt.Errorf("-engine-json requires -fig engine (got -fig %s)", fig)
	}
	if persistJSON != "" && !strings.EqualFold(fig, "persist") {
		return fmt.Errorf("-persist-json requires -fig persist (got -fig %s)", fig)
	}
	if apiJSON != "" && !strings.EqualFold(fig, "api") {
		return fmt.Errorf("-api-json requires -fig api (got -fig %s)", fig)
	}
	wr, err := report.NewWriter(w, f)
	if err != nil {
		return err
	}
	emit := func(tables ...*report.Table) error {
		for _, tb := range tables {
			if err := wr.WriteTable(tb); err != nil {
				return err
			}
		}
		return nil
	}
	want := func(id string) bool { return fig == "all" || strings.EqualFold(fig, id) }
	matched := false

	if fig == "all" {
		scale := "quick"
		if full {
			scale = "paper (-full)"
		}
		if err := wr.Header(
			"Paper-vs-measured record: Quantifying Differential Privacy under Temporal Correlations (Cao, Yoshikawa, Xiao, Xiong — ICDE 2017)",
			fmt.Sprintf("Generated by `tplbench -fig all -format %s -seed %d` at %s parameter scales.", f, seed, scale),
			"Regenerate with: `go run ./cmd/tplbench -fig all -format md > EXPERIMENTS.md` (see README.md).",
		); err != nil {
			return err
		}
	}

	if want("1") {
		matched = true
		rng := rand.New(rand.NewSource(seed))
		r, err := expt.Fig1(rng, 40, 6, 1)
		if err != nil {
			return err
		}
		if err := emit(r.Tables()...); err != nil {
			return err
		}
	}
	if want("3") {
		matched = true
		r, err := expt.Fig3(0.1, 10)
		if err != nil {
			return err
		}
		if err := emit(r.Tables()...); err != nil {
			return err
		}
	}
	if want("4") {
		matched = true
		T := 100
		panels, err := expt.Fig4(T)
		if err != nil {
			return err
		}
		if err := emit(expt.Fig4Table(panels)); err != nil {
			return err
		}
	}
	if want("5n") {
		matched = true
		rng := rand.New(rand.NewSource(seed))
		alg1 := []int{50, 100, 150}
		simplexNs := []int{4, 6, 8, 10}
		if full {
			alg1 = []int{50, 100, 150, 200, 250}
			simplexNs = []int{4, 6, 8, 10, 12, 16, 20}
		}
		pts, err := expt.Fig5N(rng, alg1, simplexNs, 10)
		if err != nil {
			return err
		}
		if err := emit(expt.Fig5Table("Fig 5(a): runtime vs n (alpha=10)", pts)); err != nil {
			return err
		}
	}
	if want("5a") {
		matched = true
		rng := rand.New(rand.NewSource(seed))
		alphas := []float64{0.001, 0.01, 0.1, 1, 10, 20}
		alg1N, simplexN := 50, 8
		if full {
			simplexN = 12
		}
		pts, err := expt.Fig5Alpha(rng, alphas, alg1N, simplexN)
		if err != nil {
			return err
		}
		if err := emit(expt.Fig5Table(
			fmt.Sprintf("Fig 5(b): runtime vs alpha (Algorithm 1 at n=%d, simplex at n=%d)", alg1N, simplexN), pts)); err != nil {
			return err
		}
	}
	if want("6") {
		matched = true
		for _, eps := range []float64{1, 0.1} {
			rng := rand.New(rand.NewSource(seed))
			T := 15
			configs := expt.Fig6DefaultConfigs(eps)
			if eps == 0.1 {
				T = 150
			}
			if !full {
				// Shrink n=200 to n=100 in quick mode.
				for i := range configs {
					if configs[i].N > 100 {
						configs[i].N = 100
					}
				}
				if T > 80 {
					T = 80
				}
			}
			curves, err := expt.Fig6(rng, configs, T)
			if err != nil {
				return err
			}
			if err := emit(expt.Fig6Table(eps, curves)); err != nil {
				return err
			}
		}
	}
	if want("7") {
		matched = true
		r, err := expt.Fig7(1, 30)
		if err != nil {
			return err
		}
		if err := emit(r.Table()); err != nil {
			return err
		}
	}
	if want("8t") {
		matched = true
		rng := rand.New(rand.NewSource(seed))
		n := 50
		if !full {
			n = 30
		}
		pts, err := expt.Fig8T(rng, 2, 0.001, n, []int{5, 10, 50})
		if err != nil {
			return err
		}
		tb, err := expt.Fig8Table(
			fmt.Sprintf("Fig 8(a): utility of 2-DP_T vs T (n=%d, s=0.001)", n), "T", pts)
		if err != nil {
			return err
		}
		if err := emit(tb); err != nil {
			return err
		}
	}
	if want("8s") {
		matched = true
		rng := rand.New(rand.NewSource(seed))
		n := 50
		if !full {
			n = 30
		}
		pts, ref, err := expt.Fig8S(rng, 2, 10, n, []float64{0.01, 0.1, 1})
		if err != nil {
			return err
		}
		tb, err := expt.Fig8Table(
			fmt.Sprintf("Fig 8(b): utility of 2-DP_T vs s (n=%d, T=10)", n), "s", pts)
		if err != nil {
			return err
		}
		tb.Notes = append(tb.Notes, fmt.Sprintf("no-correlation reference noise: %.4f", ref))
		if err := emit(tb); err != nil {
			return err
		}
	}
	if want("table2") {
		matched = true
		r, err := expt.TableII(fig7Chain(), 0.1, 10, 3)
		if err != nil {
			return err
		}
		if err := emit(r.Table()); err != nil {
			return err
		}
	}
	if want("ablation") {
		matched = true
		rng := rand.New(rand.NewSource(seed))
		T := 50
		n := 12
		if full {
			n = 20
		}
		rows, err := expt.AblationPlanners(rng, 2, T, n, []float64{0, 0.01, 0.1, 1})
		if err != nil {
			return err
		}
		if err := emit(expt.AblationPlannersTable(2, T, rows)); err != nil {
			return err
		}
		ns := []int{5, 10, 20, 40}
		if full {
			ns = append(ns, 80)
		}
		solvers, err := expt.AblationSolvers(rng, ns, 10)
		if err != nil {
			return err
		}
		if err := emit(expt.AblationSolversTable(10, solvers)); err != nil {
			return err
		}
	}
	if want("mixing") {
		matched = true
		rows, err := expt.Mixing(0.2, []float64{1.0 / 3, 0.5, 0.7, 0.9, 0.99, 1})
		if err != nil {
			return err
		}
		if err := emit(expt.MixingTable(0.2, rows)); err != nil {
			return err
		}
	}
	// The engine perf smoke is opt-in (not part of "all"): it exists to
	// seed BENCH_engine.json for the perf trajectory, and its naive
	// baseline run is deliberately slow.
	if strings.EqualFold(fig, "engine") {
		matched = true
		if err := runEngineBench(wr, seed, engineJSON, nil); err != nil {
			return err
		}
	}
	// The durability perf smoke is likewise opt-in (not part of "all"):
	// it seeds BENCH_persist.json for the perf trajectory, and its
	// 100k-user restore/replay run is deliberately heavyweight.
	if strings.EqualFold(fig, "persist") {
		matched = true
		if err := runPersistBench(wr, seed, persistJSON); err != nil {
			return err
		}
	}
	// The wire-API perf smoke is likewise opt-in (not part of "all"): it
	// seeds BENCH_api.json for the perf trajectory by driving a real
	// in-process HTTP server with 100k-user sessions over batched-NDJSON
	// ingestion.
	if strings.EqualFold(fig, "api") {
		matched = true
		if err := runAPIBench(wr, seed, full, apiJSON); err != nil {
			return err
		}
	}
	if want("soundness") {
		matched = true
		steps := 8
		if !full {
			steps = 6
		}
		rows, err := expt.Soundness(0.3, steps)
		if err != nil {
			return err
		}
		if err := emit(expt.SoundnessTable(rows)); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure id %q (want 1,3,4,5n,5a,6,7,8t,8s,table2,ablation,soundness,mixing,engine,persist,api,all)", fig)
	}
	return nil
}
