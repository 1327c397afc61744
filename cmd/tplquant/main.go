// Command tplquant quantifies the temporal privacy leakage of an eps-DP
// mechanism released at every time step, given the adversary's temporal
// correlations as transition-matrix files.
//
// Usage:
//
//	tplquant -pb backward.csv -pf forward.csv -eps 0.1 -T 20
//	tplquant -pb backward.csv -eps 0.1 -T 20        # backward-only adversary
//	tplquant -pf forward.csv -eps 1 -T 10 -format csv
//	tplquant -pb backward.csv -budgets plan.txt     # heterogeneous budgets
//	                                                # (one eps per line, e.g.
//	                                                # from tplrelease output)
//
// Matrix files contain one row per line, comma- or whitespace-separated
// probabilities; rows must sum to 1. The tool prints BPL, FPL and TPL at
// every time point plus the Theorem-5 suprema.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/matrix"
	"repro/internal/report"
	"repro/internal/version"
)

func main() {
	var (
		pbPath  = flag.String("pb", "", "backward correlation matrix file (Pr(l_{t-1}|l_t)); optional")
		pfPath  = flag.String("pf", "", "forward correlation matrix file (Pr(l_t|l_{t-1})); optional")
		eps     = flag.Float64("eps", 0.1, "per-step privacy budget of the DP mechanism")
		T       = flag.Int("T", 10, "number of release time points")
		budgets = flag.String("budgets", "", "file with one per-step budget per line; overrides -eps and -T")
		format  = flag.String("format", "", "output format: "+report.FormatNames()+" (default text)")
		showVer = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("tplquant", version.String())
		return
	}
	if err := run(os.Stdout, *pbPath, *pfPath, *eps, *T, *budgets, *format); err != nil {
		fmt.Fprintf(os.Stderr, "tplquant: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, pbPath, pfPath string, eps float64, T int, budgetsPath, format string) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
	}
	if pbPath == "" && pfPath == "" {
		return fmt.Errorf("need at least one of -pb and -pf")
	}
	if T < 1 {
		return fmt.Errorf("-T must be at least 1, got %d", T)
	}
	var pb, pf *markov.Chain
	if pbPath != "" {
		if pb, err = loadChain(pbPath); err != nil {
			return fmt.Errorf("loading -pb: %w", err)
		}
	}
	if pfPath != "" {
		if pf, err = loadChain(pfPath); err != nil {
			return fmt.Errorf("loading -pf: %w", err)
		}
	}
	qb, qf := core.NewQuantifier(pb), core.NewQuantifier(pf)
	budgets := core.UniformBudgets(eps, T)
	if budgetsPath != "" {
		if budgets, err = loadBudgets(budgetsPath); err != nil {
			return fmt.Errorf("loading -budgets: %w", err)
		}
		T = len(budgets)
	}
	bpl, err := core.BPLSeries(qb, budgets)
	if err != nil {
		return err
	}
	fpl, err := core.FPLSeries(qf, budgets)
	if err != nil {
		return err
	}
	tpl, err := core.TPLSeries(qb, qf, budgets)
	if err != nil {
		return err
	}

	title := fmt.Sprintf("Temporal privacy leakage of %g-DP at each of %d time points", eps, T)
	if budgetsPath != "" {
		title = fmt.Sprintf("Temporal privacy leakage under per-step budgets from %s (%d time points)", budgetsPath, T)
	}
	tb := &report.Table{
		Title:  title,
		Header: []string{"t", "eps", "BPL", "FPL", "TPL"},
	}
	for t := 0; t < T; t++ {
		tb.AddRow(strconv.Itoa(t+1), fmt.Sprintf("%.6f", budgets[t]),
			fmt.Sprintf("%.6f", bpl[t]), fmt.Sprintf("%.6f", fpl[t]), fmt.Sprintf("%.6f", tpl[t]))
	}
	// Suprema assume a constant budget; with heterogeneous budgets use
	// the largest one (an upper bound for every step).
	supEps := budgets[0]
	for _, e := range budgets {
		if e > supEps {
			supEps = e
		}
	}
	if supB, ok := core.Supremum(qb, supEps); ok {
		tb.Notes = append(tb.Notes, fmt.Sprintf("BPL supremum over infinite time (at eps=%g per step): %.6f", supEps, supB))
	} else {
		tb.Notes = append(tb.Notes, "BPL has no supremum: it grows without bound (Theorem 5)")
	}
	if supF, ok := core.Supremum(qf, supEps); ok {
		tb.Notes = append(tb.Notes, fmt.Sprintf("FPL supremum over infinite time (at eps=%g per step): %.6f", supEps, supF))
	} else {
		tb.Notes = append(tb.Notes, "FPL has no supremum: it grows without bound (Theorem 5)")
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("user-level leakage (Corollary 1): %.6f", core.UserLevelTPL(budgets)))
	return tb.RenderFormat(w, f)
}

// loadBudgets reads one positive per-step budget per line ('#' comments
// and blank lines skipped).
func loadBudgets(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %q is not a number", lineNo, line)
		}
		if v <= 0 {
			return nil, fmt.Errorf("line %d: budget must be positive, got %v", lineNo, v)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no budgets in %s", path)
	}
	return out, nil
}

// loadChain reads a row-stochastic matrix from a text file: one row per
// line, values separated by commas and/or whitespace. Blank lines and
// lines starting with '#' are skipped.
func loadChain(path string) (*markov.Chain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]float64
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		row := make([]float64, 0, len(fields))
		for _, fd := range fields {
			v, err := strconv.ParseFloat(fd, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %q is not a number", lineNo, fd)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m, err := matrix.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return markov.New(m)
}
