package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness report
// reads: each end-to-end metric's bound and direction.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs one workload --runs times per set, each run with its
// own seed, and prints for every metric the median, the quartiles, the
// interquartile spread as a share of the median and the max/min ratio.
// With --sets 2 it also prints how far the second set's median moved
// from the first's, against the metric's bound in BENCHMARK.json.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 5, "runs per set")
	sets := fs.Int("sets", 1, "number of sets (2 compares the second against the first)")
	seed := fs.Int64("seed", 1, "seed of the first run; run i of set s uses seed+s*runs+i")
	seconds := fs.Int("seconds", 10, "passed through to every run")
	trace := fs.Int("trace", 0, "passed through to every run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *runs < 2 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "perfbench steady: need a known --workload, --runs >= 2 and --sets >= 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	bounds := map[string]float64{}
	lower := map[string]bool{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err == nil {
			for _, m := range bf.EndToEnd {
				bounds[m.Name] = m.Bound
				lower[m.Name] = m.Better == "lower"
			}
		}
	}
	var medians []map[string]float64
	for s := 0; s < *sets; s++ {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < *runs; i++ {
			sd := *seed + int64(s**runs+i)
			res, err := runChild(self, *name, sd, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: %v\n", sd, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: correctness checks failed\n", sd)
				return 1
			}
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		fmt.Printf("set %d: %s, %d runs\n", s+1, *name, *runs)
		fmt.Printf("%-34s %12s %12s %12s %8s %8s %6s\n", "metric", "q1", "median", "q3", "iqr/med", "max/min", "bound")
		med := map[string]float64{}
		for _, n := range sortedKeys(values) {
			v := values[n]
			q1, q2, q3 := quartiles(v)
			lo, hi := minMax(v)
			med[n] = median(v)
			mark := ""
			if b, ok := bounds[n]; ok && n != "setup_s" && (q3-q1)/q2 > b/3 {
				mark = "  spread above a third of the bound"
			}
			fmt.Printf("%-34s %12.5g %12.5g %12.5g %8.4f %8.3f %6s %s%s\n", n, q1, q2, q3, (q3-q1)/q2, hi/lo, boundText(bounds, n), units[n], mark)
		}
		medians = append(medians, med)
	}
	if len(medians) >= 2 {
		fmt.Println("median shift of the last set against the first (positive = worse)")
		first, last := medians[0], medians[len(medians)-1]
		for _, n := range sortedKeys(first) {
			shift := last[n]/first[n] - 1
			if !lower[n] {
				shift = -shift
			}
			mark := ""
			if b, ok := bounds[n]; ok && shift > b {
				mark = "  worse than the bound"
			}
			fmt.Printf("%-34s %+8.4f %6s%s\n", n, shift, boundText(bounds, n), mark)
		}
	}
	return 0
}

// runChild runs one benchmark run as a child process and parses its
// result line (the last line of its standard output).
func runChild(self, name string, seed int64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}

func boundText(bounds map[string]float64, n string) string {
	if b, ok := bounds[n]; ok {
		return strconv.FormatFloat(b, 'g', -1, 64)
	}
	return "-"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
