package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// sample is the table every format golden test renders: it exercises a
// title, ragged rows, notes, and cells needing Markdown/CSV escaping.
func sample() *Table {
	t := &Table{
		Title:  "Fig X: sample leakage series",
		Header: []string{"t", "BPL", "label"},
	}
	t.AddRow("1", "0.1000", "start")
	t.AddRow("2", "0.1900", "a|b, \"quoted\"")
	t.AddRow("10", "0.6513")
	t.AddNote("supremum: 0.6931")
	t.AddNote("pipe | in a note")
	return t
}

// writeDoc renders a titled document through Writer.
func writeDoc(t *testing.T, f Format, title string, notes []string, tables ...*Table) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	wr, err := NewWriter(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Header(title, notes...); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if err := wr.WriteTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func TestGoldenPerFormat(t *testing.T) {
	for _, f := range Formats() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := sample().RenderFormat(&buf, f); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "sample."+f.String()+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if buf.String() != string(want) {
				t.Errorf("%s output drifted from golden\n--- got ---\n%s--- want ---\n%s",
					f, buf.String(), want)
			}
		})
	}
}

func TestDocumentGoldenPerFormat(t *testing.T) {
	second := &Table{
		Title:  "Table Y: second section",
		Header: []string{"k", "v"},
		Rows:   [][]string{{"rows", "3"}},
	}
	for _, f := range Formats() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			buf := writeDoc(t, f, "Sample run", []string{"seed 1, quick scales"}, sample(), second)
			path := filepath.Join("testdata", "doc."+f.String()+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if buf.String() != string(want) {
				t.Errorf("%s document drifted from golden\n--- got ---\n%s--- want ---\n%s",
					f, buf.String(), want)
			}
		})
	}
}

func TestJSONLinesRoundTrip(t *testing.T) {
	orig := sample()
	var buf bytes.Buffer
	if err := orig.JSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	tables, err := ParseJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("round trip produced %d tables, want 1", len(tables))
	}
	got := tables[0]
	if got.Title != orig.Title {
		t.Errorf("title %q != %q", got.Title, orig.Title)
	}
	if !reflect.DeepEqual(got.Header, orig.Header) {
		t.Errorf("header %v != %v", got.Header, orig.Header)
	}
	if !reflect.DeepEqual(got.Rows, orig.Rows) {
		t.Errorf("rows %v != %v", got.Rows, orig.Rows)
	}
	if !reflect.DeepEqual(got.Notes, orig.Notes) {
		t.Errorf("notes %v != %v", got.Notes, orig.Notes)
	}
}

func TestJSONLinesDocumentRoundTrip(t *testing.T) {
	buf := writeDoc(t, JSONLines, "doc", []string{"preamble"},
		sample(), &Table{Title: "second", Header: []string{"a"}, Rows: [][]string{{"1"}}})
	tables, err := ParseJSONLines(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	if tables[1].Title != "second" || len(tables[1].Rows) != 1 {
		t.Errorf("second table corrupted: %+v", tables[1])
	}
}

func TestParseJSONLinesErrors(t *testing.T) {
	cases := map[string]string{
		"row before table":  `{"type":"row","cells":["1"]}`,
		"note before table": `{"type":"note","text":"n"}`,
		"unknown type":      `{"type":"blob"}`,
		"bad json":          `{"type":`,
	}
	for name, in := range cases {
		if _, err := ParseJSONLines(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Blank lines and report preambles are tolerated.
	ok := "{\"type\":\"report\",\"title\":\"d\"}\n\n{\"type\":\"table\",\"title\":\"t\"}\n"
	tables, err := ParseJSONLines(strings.NewReader(ok))
	if err != nil || len(tables) != 1 {
		t.Errorf("tolerant parse failed: %v, %d tables", err, len(tables))
	}
}

func TestParseFormat(t *testing.T) {
	good := map[string]Format{
		"text": Text, "TXT": Text, "": Text,
		"csv": CSV,
		"md":  Markdown, "markdown": Markdown,
		"json": JSONLines, "jsonl": JSONLines, "ndjson": JSONLines,
	}
	for in, want := range good {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("ParseFormat(yaml) should fail")
	}
	// Canonical spellings parse back to themselves.
	for _, f := range Formats() {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFormat(%v.String()) = %v, %v", f, got, err)
		}
	}
}

func TestTextAlignmentMatchesLegacyLayout(t *testing.T) {
	// The Text format is the seed repo's original rendering: title,
	// padded header, dashed rule of total column width, padded rows,
	// "note:" lines, no trailing whitespace on any line.
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"wide-cell", "x"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	want := "T\n" +
		"a          long-header\n" +
		"------------------------\n" +
		"wide-cell  x\n" +
		"note: n\n"
	if buf.String() != want {
		t.Errorf("got:\n%q\nwant:\n%q", buf.String(), want)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.TrimRight(line, " ") != line {
			t.Errorf("trailing whitespace on %q", line)
		}
	}
}

func TestMarkdownEscapesAndPads(t *testing.T) {
	tb := &Table{
		Title:  "Pipes | everywhere",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1"}, {"x|y", "multi\nline", "extra"}},
	}
	var buf bytes.Buffer
	if err := tb.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "### Pipes \\| everywhere") {
		t.Errorf("title not escaped: %s", out)
	}
	if !strings.Contains(out, "| x\\|y | multi line | extra |") {
		t.Errorf("cells not escaped/joined: %s", out)
	}
	// Every table line has the same number of pipes (a rectangle).
	var counts []int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "|") {
			counts = append(counts, strings.Count(strings.ReplaceAll(line, "\\|", ""), "|"))
		}
	}
	for _, c := range counts {
		if c != counts[0] {
			t.Errorf("ragged markdown table: pipe counts %v in\n%s", counts, out)
		}
	}
}

func TestWriterHeaderMustComeFirst(t *testing.T) {
	var buf bytes.Buffer
	wr, err := NewWriter(&buf, Text)
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteTable(sample()); err != nil {
		t.Fatal(err)
	}
	if err := wr.Header("late"); err == nil {
		t.Error("Header after WriteTable should fail")
	}
	if wr.Tables() != 1 {
		t.Errorf("Tables() = %d, want 1", wr.Tables())
	}
}

func TestReportNilTable(t *testing.T) {
	wr, err := NewWriter(&bytes.Buffer{}, Text)
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteTable(nil); err == nil {
		t.Error("nil table should be reported, not crash")
	}
}

func TestCSVIsHeaderFirstAndParseable(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t,BPL,label" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 { // header + 3 rows, no title/notes
		t.Errorf("%d lines, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(buf.String(), `"a|b, ""quoted"""`) {
		t.Errorf("csv quoting missing: %s", buf.String())
	}
}
