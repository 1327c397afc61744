// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against a tplserved built from the tree under test,
// checks the leakage it serves against an in-process reference, and
// prints one JSON result line. Run it through run.sh from the
// repository root, which builds both binaries first:
//
//	bash perfbench/run.sh --workload durable-ingest --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh steady --workload wide-accounting --runs 5
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace
// 1 is a separate in-process run that times calls into each module and
// reports the per-layer metrics. See NOTES.md for the design.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// buildDir is where run.sh puts the binaries and where runs keep their
// scratch state, relative to the checkout root.
const buildDir = ".bench_build"

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "run length the fixed work is sized for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	w = w.scaled(*seconds)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	work, err := filepath.Abs(filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{serverBin: filepath.Join(buildDir, "bin", "tplserved"), work: work}

	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, e, w, *seed)
	} else {
		res, err = runWorkload(ctx, e, w, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics lists every metric by name with its unit, one a line,
// ahead of the JSON result.
func printMetrics(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
