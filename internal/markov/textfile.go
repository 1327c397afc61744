package markov

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// LoadFile reads a row-stochastic matrix from a text file: one row per
// line, values separated by commas and/or whitespace. Blank lines and
// lines starting with '#' are skipped. It is the chain format the
// tplquant and tplrelease CLIs take (and tplsim -out matrix writes).
func LoadFile(path string) (*Chain, error) {
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
	return FromRows(rows)
}
