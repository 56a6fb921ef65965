package bench

import (
	"bytes"
	"strings"
	"testing"
)

// experimentIDs is every registered experiment, sorted: the rows of
// DESIGN.md §4 that a `pimkd-bench -exp` reproduces.
var experimentIDs = []string{
	"ann", "batchsize", "caching", "construction", "counter", "dbscan",
	"decomposition", "delayed", "dpc", "friendly", "height", "index",
	"knn", "leafsearch", "pscale", "range", "rounds", "skew", "sort",
	"trace", "tradeoff", "update",
}

// TestAllExperimentsRunQuick executes every registered experiment in quick
// mode and sanity-checks the output: every experiment must print at least
// one table, never emit NaN/Inf cells, and never print a FAILED check.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	exps := All()
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	if strings.Join(ids, ",") != strings.Join(experimentIDs, ",") {
		t.Fatalf("registered experiments %v, want %v", ids, experimentIDs)
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(&buf, true)
			out := buf.String()
			if !strings.Contains(out, "---") {
				t.Fatalf("experiment %s printed no table:\n%s", e.ID, out)
			}
			for _, bad := range []string{"NaN", "+Inf", "-Inf", "FAILED"} {
				if strings.Contains(out, bad) {
					t.Fatalf("experiment %s printed %s:\n%s", e.ID, bad, out)
				}
			}
		})
	}
}

func TestFindAndRunAll(t *testing.T) {
	if _, ok := Find("leafsearch"); !ok {
		t.Fatal("leafsearch experiment missing")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("found nonexistent experiment")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, []string{"counter"}, true); err != nil {
		t.Fatal(err)
	}
	if err := RunAll(&buf, []string{"bogus"}, true); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tb := NewTable("title", "a", "bbbb")
	tb.Row(1, 2.5)
	tb.Row("xx", "y")
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "2.500") {
		t.Fatalf("bad table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines got %d:\n%s", len(lines), out)
	}
}
