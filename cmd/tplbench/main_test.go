package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/report"
)

func TestRunEveryFigure(t *testing.T) {
	// Quick-scale smoke of every figure id, asserting each produces its
	// identifying title.
	wantTitles := map[string]string{
		"1":         "Fig 1(c)",
		"3":         "Fig 3(a)",
		"4":         "Fig 4",
		"7":         "Fig 7",
		"table2":    "Table II",
		"mixing":    "Structure vs privacy",
		"soundness": "Soundness",
	}
	for fig, title := range wantTitles {
		var buf bytes.Buffer
		if err := run(&buf, fig, false, "text", 1, "", "", ""); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if !strings.Contains(buf.String(), title) {
			t.Errorf("fig %s: output missing %q", fig, title)
		}
	}
}

func TestRunSlowFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second figure regenerations in -short mode")
	}
	wantTitles := map[string]string{
		"5n":       "Fig 5(a)",
		"5a":       "Fig 5(b)",
		"6":        "Fig 6",
		"8t":       "Fig 8(a)",
		"8s":       "Fig 8(b)",
		"ablation": "Ablation",
	}
	for fig, title := range wantTitles {
		var buf bytes.Buffer
		if err := run(&buf, fig, false, "text", 1, "", "", ""); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if !strings.Contains(buf.String(), title) {
			t.Errorf("fig %s: output missing %q", fig, title)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table2", false, "csv", 1, "", "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "privacy notion,independent,temporally correlated") {
		t.Errorf("csv output missing header: %q", out)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", false, "text", 1, "", "", ""); err == nil {
		t.Error("unknown figure id should fail")
	}
}

func TestRunFig3MatchesGolden(t *testing.T) {
	// The Fig. 3 CSV is fully deterministic (no RNG involved); pin it to
	// a golden file so numeric regressions in the quantification core
	// surface immediately.
	golden, err := os.ReadFile("testdata/fig3.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, "3", false, "csv", 1, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(golden) {
		t.Errorf("fig 3 output drifted from golden file\n--- got ---\n%s--- want ---\n%s",
			buf.String(), golden)
	}
}

func TestRunTable2MatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/table2.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, "table2", false, "csv", 1, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(golden) {
		t.Errorf("Table II output drifted from golden file\n--- got ---\n%s--- want ---\n%s",
			buf.String(), golden)
	}
}

func TestRunFig3PrintsPaperValues(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "3", false, "text", 1, "", "", ""); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"0.18", "0.64", "0.50"} {
		if !strings.Contains(buf.String(), v) {
			t.Errorf("fig 3 output missing paper value %s", v)
		}
	}
}

func TestEveryFastFigureRendersInAllFormats(t *testing.T) {
	// Acceptance: every figure id renders through internal/report in
	// all four formats. The fast figures run the full matrix here; the
	// multi-second ones are covered in text by TestRunSlowFigures and
	// in JSON by TestSlowFigureJSONParses.
	for _, fig := range []string{"1", "3", "4", "7", "table2", "mixing", "soundness"} {
		for _, format := range []string{"text", "csv", "md", "json"} {
			var buf bytes.Buffer
			if err := run(&buf, fig, false, format, 1, "", "", ""); err != nil {
				t.Fatalf("fig %s format %s: %v", fig, format, err)
			}
			if buf.Len() == 0 {
				t.Errorf("fig %s format %s: empty output", fig, format)
			}
			if format == "json" {
				tables, err := report.ParseJSONLines(&buf)
				if err != nil || len(tables) == 0 {
					t.Errorf("fig %s: JSON lines do not parse back: %v", fig, err)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := run(&buf, "3", false, "yaml", 1, "", "", ""); err == nil {
		t.Error("unknown format should fail")
	}
}

func TestSlowFigureJSONParses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second figure regeneration in -short mode")
	}
	var buf bytes.Buffer
	if err := run(&buf, "8t", false, "json", 1, "", "", ""); err != nil {
		t.Fatal(err)
	}
	tables, err := report.ParseJSONLines(&buf)
	if err != nil || len(tables) == 0 {
		t.Fatalf("fig 8t JSON lines do not parse back: %v", err)
	}
}

func TestRunAllEmitsDocumentHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full regeneration in -short mode")
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", false, "md", 1, "", "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# Paper-vs-measured record") {
		t.Errorf("markdown document should start with the H1 preamble, got %q", out[:80])
	}
	if !strings.Contains(out, "go run ./cmd/tplbench -fig all -format md > EXPERIMENTS.md") {
		t.Error("document preamble should state the regeneration command")
	}
}

// TestEngineBenchJSON runs the compiled-engine perf smoke at tiny sizes
// and checks both the rendered table and the machine-readable
// BENCH_engine.json it writes for the perf trajectory.
func TestEngineBenchJSON(t *testing.T) {
	path := t.TempDir() + "/BENCH_engine.json"
	var buf bytes.Buffer
	wr, err := report.NewWriter(&buf, report.Text)
	if err != nil {
		t.Fatal(err)
	}
	if err := runEngineBench(wr, 1, path, []int{8, 16}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Compiled-engine benchmark") {
		t.Errorf("table missing title:\n%s", out)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc engineBenchFile
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("BENCH_engine.json does not parse: %v", err)
	}
	if doc.Benchmark != "engine" || len(doc.Points) != 2 {
		t.Fatalf("unexpected document %+v", doc)
	}
	for _, p := range doc.Points {
		if p.CompileNs <= 0 || p.EvalNs <= 0 || p.NaiveEvalNs <= 0 || p.Segments <= 0 {
			t.Errorf("implausible point %+v", p)
		}
	}
}
