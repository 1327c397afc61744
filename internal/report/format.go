package report

import (
	"fmt"
	"strings"
)

// Format selects an output encoding.
type Format int

const (
	// Text is the aligned-columns terminal rendering.
	Text Format = iota
	// CSV is RFC-4180 comma-separated values: header row first, data
	// rows after; titles and notes are omitted.
	CSV
	// Markdown is a GitHub-flavored Markdown pipe table with the title
	// as a heading and notes as a blockquote.
	Markdown
	// JSONLines emits one JSON object per line (a table line, then one
	// line per row and note); ParseJSONLines reads it back.
	JSONLines
)

// String returns the canonical flag spelling of the format.
func (f Format) String() string {
	switch f {
	case Text:
		return "text"
	case CSV:
		return "csv"
	case Markdown:
		return "md"
	case JSONLines:
		return "json"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Formats lists every supported format in flag spelling, for usage
// strings and exhaustive tests.
func Formats() []Format { return []Format{Text, CSV, Markdown, JSONLines} }

// FormatNames is the "text,csv,md,json" list for -format usage strings.
func FormatNames() string {
	names := make([]string, 0, len(Formats()))
	for _, f := range Formats() {
		names = append(names, f.String())
	}
	return strings.Join(names, ",")
}

// ParseFormat maps a flag value to a Format. It accepts the canonical
// spellings plus the common aliases "markdown" and "jsonl".
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "text", "txt", "":
		return Text, nil
	case "csv":
		return CSV, nil
	case "md", "markdown":
		return Markdown, nil
	case "json", "jsonl", "ndjson":
		return JSONLines, nil
	default:
		return Text, fmt.Errorf("report: unknown format %q (want %s)", s, FormatNames())
	}
}
