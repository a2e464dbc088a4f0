// Package stats is the table formatter: aligned fixed-width and CSV
// rendering for experiment output, telemetry snapshots and obiwan-admin.
package stats

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table renders rows of experiment output with aligned columns.
type Table struct {
	Headers []string
	rows    [][]string
}

// NewTable builds a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// WriteTo renders the table. It implements a fixed-width text layout; the
// error is always nil (io.Writer errors are ignored intentionally — the
// harness writes to stdout).
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var n int64
	write := func(s string) {
		m, _ := io.WriteString(w, s)
		n += int64(m)
	}
	var b strings.Builder
	for i, h := range t.Headers {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(pad(h, widths[i]))
	}
	write(b.String() + "\n")
	b.Reset()
	for i := range t.Headers {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	write(b.String() + "\n")
	for _, row := range t.rows {
		b.Reset()
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		write(b.String() + "\n")
	}
	return n, nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV renders the table as comma-separated values (headers first).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
