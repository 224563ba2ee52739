package harness

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// A Table is one experiment's output: the rows/series the paper's
// corresponding figure or table reports.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry shape commentary (factors, crossovers) that the
	// paper states in prose.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// series reads column col of the rows whose cell in column by is key
// (every row when by is empty) as numbers, in row order: what a claim's
// predicate reads back. A cell is read up to its first space, less a
// leading "$" and a trailing "x" or "%", as the tables format them
// ("1.94x", "$0.0000093", "10.9 GB").
func (t *Table) series(col, by, key string) ([]float64, error) {
	c, b := slices.Index(t.Columns, col), slices.Index(t.Columns, by)
	if c < 0 || (by != "" && b < 0) {
		return nil, fmt.Errorf("%s: no column %q or %q", t.ID, col, by)
	}
	var out []float64
	for _, row := range t.Rows {
		if by != "" && row[b] != key {
			continue
		}
		cell, _, _ := strings.Cut(row[c], " ")
		v, err := strconv.ParseFloat(strings.TrimRight(strings.TrimPrefix(cell, "$"), "x%"), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", t.ID, col, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no %s rows for %s %q", t.ID, col, by, key)
	}
	return out, nil
}

// systems reads column col of each of systems' rows, as series does.
func (t *Table) systems(col string, systems ...System) (map[System][]float64, error) {
	out := make(map[System][]float64, len(systems))
	for _, sys := range systems {
		vs, err := t.series(col, "system", string(sys))
		if err != nil {
			return nil, err
		}
		out[sys] = vs
	}
	return out, nil
}

// spread is the ratio of the largest of vs to the smallest: 1 for a
// flat series.
func spread(vs []float64) float64 { return slices.Max(vs) / slices.Min(vs) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && utf8.RuneCountInString(cell) > widths[i] {
				widths[i] = utf8.RuneCountInString(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - utf8.RuneCountInString(cell); i < len(cells)-1 && pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total >= 2 {
		total -= 2
	}
	return total
}
