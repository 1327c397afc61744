// Command tplrelease plans privacy budgets that convert an eps-DP
// mechanism into one satisfying alpha-DP_T under given temporal
// correlations, using the paper's Algorithm 2 (upper bound, any horizon)
// or Algorithm 3 (exact quantification, known horizon).
//
// Usage:
//
//	tplrelease -pb backward.csv -pf forward.csv -alpha 1 -alg 2
//	tplrelease -pb backward.csv -pf forward.csv -alpha 1 -alg 3 -T 20
//
// The tool prints the per-step budgets, the realized TPL at every time
// point (verified through the quantification machinery), and the
// expected Laplace noise per released count.
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
	"repro/internal/mechanism"
	"repro/internal/release"
	"repro/internal/report"
	"repro/internal/version"
)

func main() {
	var (
		pbPath  = flag.String("pb", "", "backward correlation matrix file; optional")
		pfPath  = flag.String("pf", "", "forward correlation matrix file; optional")
		alpha   = flag.Float64("alpha", 1, "target temporal privacy leakage (alpha-DP_T)")
		alg     = flag.Int("alg", 3, "planner: 2 = upper bound (any horizon), 3 = quantification (fixed T)")
		T       = flag.Int("T", 10, "release horizon (budgets printed for this many steps)")
		format  = flag.String("format", "", "output format: "+report.FormatNames()+" (default text)")
		showVer = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("tplrelease", version.String())
		return
	}
	if err := run(os.Stdout, *pbPath, *pfPath, *alpha, *alg, *T, *format); err != nil {
		fmt.Fprintf(os.Stderr, "tplrelease: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, pbPath, pfPath string, alpha float64, alg, T int, format string) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
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

	var plan release.Plan
	var title string
	switch alg {
	case 2:
		p, err := release.UpperBound(pb, pf, alpha)
		if err != nil {
			return err
		}
		plan = p
		title = fmt.Sprintf("Algorithm 2 plan for %g-DP_T (eps=%.6f at every step; BPL sup %.6f, FPL sup %.6f)",
			alpha, p.Eps, p.AlphaB, p.AlphaF)
	case 3:
		p, err := release.Quantified(pb, pf, alpha, T)
		if err != nil {
			return err
		}
		plan = p
		title = fmt.Sprintf("Algorithm 3 plan for %g-DP_T over T=%d (eps1=%.6f, epsM=%.6f, epsT=%.6f)",
			alpha, T, p.Eps1, p.EpsM, p.EpsT)
	default:
		return fmt.Errorf("-alg must be 2 or 3, got %d", alg)
	}

	budgets, err := plan.Budgets(T)
	if err != nil {
		return err
	}
	tpl, err := core.TPLSeries(core.NewQuantifier(pb), core.NewQuantifier(pf), budgets)
	if err != nil {
		return err
	}
	tb := &report.Table{
		Title:  title,
		Header: []string{"t", "eps", "realized TPL", "E|noise| (sens=1)"},
	}
	for t := 0; t < T; t++ {
		tb.AddRow(strconv.Itoa(t+1),
			fmt.Sprintf("%.6f", budgets[t]),
			fmt.Sprintf("%.6f", tpl[t]),
			fmt.Sprintf("%.4f", 1/budgets[t]))
	}
	if noise, err := mechanism.MeanExpectedAbsNoise(1, budgets); err == nil {
		tb.Notes = append(tb.Notes, fmt.Sprintf("mean E|noise| over the horizon: %.4f", noise))
	}
	worst := 0.0
	for _, v := range tpl {
		if v > worst {
			worst = v
		}
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("max realized TPL: %.6f (target %.6f)", worst, alpha))
	return tb.RenderFormat(w, f)
}

// loadChain reads a row-stochastic matrix from a text file (one row per
// line, comma- or whitespace-separated; '#' comments allowed).
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
