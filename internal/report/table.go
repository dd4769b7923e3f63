// Package report renders the experiment harness's tables as aligned plain
// text or GitHub markdown. It is intentionally tiny: headers, string
// rows, a title, and formatting helpers for the numeric conventions the
// paper uses (sigma in whole mA·min, durations with one decimal).
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled grid of strings.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes are appended under the table, one line each.
	Notes []string
}

// AddRow appends a row; values are stringified with %v unless already
// strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for k, c := range cells {
		switch v := c.(type) {
		case string:
			row[k] = v
		case float64:
			row[k] = strconv.FormatFloat(v, 'g', -1, 64)
		default:
			row[k] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// widths returns the per-column display widths.
func (t *Table) widths() []int {
	w := make([]int, len(t.Headers))
	for k, h := range t.Headers {
		w[k] = len(h)
	}
	for _, row := range t.Rows {
		for k, c := range row {
			if k < len(w) && len(c) > w[k] {
				w[k] = len(c)
			}
		}
	}
	return w
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := t.widths()
	line := func(cells []string) {
		for k, c := range cells {
			if k > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[k], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for k := range sep {
		sep[k] = strings.Repeat("-", widths[k])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown writes the table as a GitHub-flavored markdown table.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Headers, " | "))
	sep := make([]string, len(t.Headers))
	for k := range sep {
		sep[k] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// F1 formats a float with one decimal (durations in the paper's tables).
func F1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// F0 formats a float rounded to an integer (sigma in the paper's tables).
func F0(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }

// Pct formats a percentage with one decimal.
func Pct(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// Seq formats a task-ID sequence the way the paper prints them:
// "T1,T4,T5,…".
func Seq(ids []int) string {
	parts := make([]string, len(ids))
	for k, id := range ids {
		parts[k] = "T" + strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// DPs formats a positional design-point row the way the paper prints them:
// "P5,P5,P4,…" for the tasks of a sequence.
func DPs(order []int, assignment map[int]int) string {
	parts := make([]string, len(order))
	for k, id := range order {
		parts[k] = "P" + strconv.Itoa(assignment[id]+1)
	}
	return strings.Join(parts, ",")
}
