// Package bench is the experiment harness that regenerates every table,
// figure, and theorem-shaped claim of the paper (see DESIGN.md §4 for the
// experiment index E1–E23). Each experiment prints the measured series next
// to the paper's predicted shape; EXPERIMENTS.md records a captured run.
// The systems layers beyond the paper (durability, peer rebuild, the
// cluster, the load generator) are pinned by their own packages' tests and
// measured end to end by `go run ./benchmark`, not here.
//
// The harness is deliberately shape-oriented: the paper is a theory paper,
// so an experiment passes when the metered quantity grows (or stays flat)
// the way the bound says, not when it hits a particular constant.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one reproducible unit: typically one Table-1 row, figure,
// or theorem.
type Experiment struct {
	// ID is the short name used by `pimkd-bench -exp <id>`.
	ID string
	// Artifact names the paper artifact being reproduced.
	Artifact string
	// Summary is a one-line description.
	Summary string
	// Run executes the experiment, writing its tables to w. quick shrinks
	// problem sizes for use inside `go test`.
	Run func(w io.Writer, quick bool)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Select returns the experiments named by ids, in the order given, or all
// of them sorted by ID when ids is empty. An unknown ID is an error.
func Select(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return All(), nil
	}
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := Find(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
		}
		out = append(out, e)
	}
	return out, nil
}

// RunAll executes the selected experiments (all when ids is empty).
func RunAll(w io.Writer, ids []string, quick bool) error {
	selected, err := Select(ids)
	if err != nil {
		return err
	}
	for _, e := range selected {
		runOne(w, e, quick)
	}
	return nil
}

func runOne(w io.Writer, e Experiment, quick bool) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n%s\n\n", e.ID, e.Artifact, e.Summary)
	e.Run(w, quick)
}

// Table is a fixed-width text table.
type Table struct {
	title string
	cols  []string
	rows  [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{title: title, cols: cols}
}

// Row appends a row; values are formatted with %v (floats with %.3g via
// F()).
func (t *Table) Row(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.title != "" {
		fmt.Fprintf(w, "%s\n", t.title)
	}
	var b strings.Builder
	for i, c := range t.cols {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	b.Reset()
	for i := range t.cols {
		fmt.Fprintf(&b, "%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	for _, row := range t.rows {
		b.Reset()
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	fmt.Fprintln(w)
}

// F formats a float compactly for table cells.
func F(x float64) string { return fmt.Sprintf("%.3g", x) }
