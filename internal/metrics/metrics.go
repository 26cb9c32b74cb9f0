// Package metrics provides the aggregation and formatting used by the
// evaluation harness: geometric means, the tables every figure returns,
// and the one formatter that prints them.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of xs (1.0 for empty input).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Table is one figure's rows of labelled values and the prose notes
// printed after it.
type Table struct {
	Title   string
	Columns []string
	// Rows holds each cell as AddRow was given it; String formats them.
	Rows  [][]any
	Notes []string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row, storing each cell as given.
func (t *Table) AddRow(cells ...any) { t.Rows = append(t.Rows, cells) }

// formatCell prints floats with 3 decimals and anything else with %v.
func formatCell(c any) string {
	if v, ok := c.(float64); ok {
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprint(c)
}

// String renders the table without its notes.
func (t *Table) String() string {
	rows := make([][]string, len(t.Rows))
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for ri, r := range t.Rows {
		rows[ri] = make([]string, len(r))
		for i, c := range r {
			rows[ri][i] = formatCell(c)
			if i < len(widths) && len(rows[ri][i]) > widths[i] {
				widths[i] = len(rows[ri][i])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// Format renders tables as the reports print them: each table and a
// blank line, then its notes one per line. A table without columns
// prints only its notes.
func Format(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		if len(t.Columns) > 0 {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		for _, n := range t.Notes {
			b.WriteString(n)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
