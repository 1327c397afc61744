package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Writer streams a report document: an optional preamble (Header)
// followed by any number of tables, each rendered the moment it
// arrives. Long experiment runs use it to emit results as they are
// computed instead of buffering the whole document.
//
// The document conventions per format:
//
//   - Text: title underlined with '=', notes as prose, one blank line
//     after the preamble and after every table.
//   - CSV: no preamble (pure data); a blank line between tables keeps
//     multi-table documents splittable.
//   - Markdown: title as an H1, notes as paragraphs, tables as H3
//     sections separated by blank lines.
//   - JSONLines: a {"type":"report",...} line, then the tables' lines
//     with no separators — every line of the document is one JSON
//     object.
type Writer struct {
	w      io.Writer
	f      Format
	r      Renderer
	wrote  bool // a preamble or table has been written
	tables int
}

// NewWriter starts a streaming report document on w.
func NewWriter(w io.Writer, f Format) (*Writer, error) {
	r, err := NewRenderer(f)
	if err != nil {
		return nil, err
	}
	return &Writer{w: w, f: f, r: r}, nil
}

// Header writes the document preamble. It must precede every table.
func (wr *Writer) Header(title string, notes ...string) error {
	if wr.wrote {
		return fmt.Errorf("report: Header must be the first write")
	}
	wr.wrote = true
	bw := bufio.NewWriter(wr.w)
	switch wr.f {
	case Text:
		bw.WriteString(title)
		bw.WriteByte('\n')
		for i := 0; i < len(title); i++ {
			bw.WriteByte('=')
		}
		bw.WriteByte('\n')
		for _, n := range notes {
			bw.WriteString(n)
			bw.WriteByte('\n')
		}
		bw.WriteByte('\n')
	case CSV:
		// CSV is pure data; the preamble has no representation.
	case Markdown:
		bw.WriteString("# ")
		bw.WriteString(mdEscape(title))
		bw.WriteString("\n\n")
		for _, n := range notes {
			bw.WriteString(n)
			bw.WriteString("\n\n")
		}
	case JSONLines:
		enc := json.NewEncoder(bw)
		if err := enc.Encode(jsonLine{Type: "report", Title: title, Notes: notes}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTable renders one table into the document. Every format except
// JSONLines separates tables with one blank line; JSON lines documents
// stay blank-line-free so each line of the file is one JSON object.
func (wr *Writer) WriteTable(t *Table) error {
	if t == nil {
		return fmt.Errorf("report: table %d is nil", wr.tables)
	}
	wr.wrote = true
	if err := wr.r.RenderTable(wr.w, t); err != nil {
		return err
	}
	wr.tables++
	if wr.f != JSONLines {
		if _, err := io.WriteString(wr.w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// Tables returns how many tables have been written.
func (wr *Writer) Tables() int { return wr.tables }
