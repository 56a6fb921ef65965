package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// -compare old new: each side is one run file or a directory of them (for
// example ten driver-style runs with different seeds). Per workload and
// end-to-end metric it prints both medians, the relative change, the bound,
// and a verdict; drift in tree_batch's exact pim counts is listed apart.

type side struct {
	label string
	files []*runFile
}

func loadSide(path string) (*side, error) {
	s := &side{label: path}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Schema != runSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, f.Schema, runSchema)
		}
		s.files = append(s.files, &f)
	}
	if len(s.files) == 0 {
		return nil, fmt.Errorf("%s: no run files", path)
	}
	return s, nil
}

// values collects a metric's values over the side's scored passes of one
// workload.
func (s *side) values(workload, name string) []float64 {
	var v []float64
	for _, f := range s.files {
		for _, p := range f.Passes {
			if p.Workload != workload || p.Traced {
				continue
			}
			if m, ok := p.Metric[name]; ok && (m.Value != 0 || m.Samples > 0) {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share of
// the median — statistics.quantiles(values, n=4) in Python's default
// exclusive method — or 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	q := func(p float64) float64 {
		pos := p * float64(len(c)+1)
		i := int(math.Floor(pos))
		if i < 1 {
			i = 1
		} else if i > len(c)-1 {
			i = len(c) - 1
		}
		frac := pos - float64(i) // beyond the ends this extrapolates, as Python does
		return c[i-1] + frac*(c[i]-c[i-1])
	}
	med := medianFloat(c)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

// runCompare prints the comparison and returns the process exit code: 1 if
// any metric regressed or an exact count drifted, else 0.
func runCompare(w io.Writer, oldPath, newPath string) int {
	a, err := loadSide(oldPath)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadSide(newPath)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(w, "old: %s (%d runs)   new: %s (%d runs)\n", a.label, len(a.files), b.label, len(b.files))
	code := 0
	var judged []metricDef
	judged = append(judged, gatedMetrics...)
	for _, d := range layerMetrics {
		if d.Bound > 0 {
			judged = append(judged, d)
		}
	}
	for _, wl := range workloadNames {
		fmt.Fprintf(w, "\n%s\n  %-20s %14s %14s %9s %7s %8s  %s\n", wl, "metric", "old median", "new median", "change", "bound", "spread", "verdict")
		for _, d := range judged {
			va, vb := a.values(wl, d.Name), b.values(wl, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := medianFloat(va), medianFloat(vb)
			change := (mb - ma) / ma
			worse := change
			if d.Higher {
				worse = -change
			}
			sp := math.Max(spread(va), spread(vb))
			// A spread wider than the bound resolves nothing, unless every
			// run of one side beats every run of the other.
			verdict := "PASS"
			switch {
			case sp > d.Bound && !disjoint(va, vb):
				verdict = "UNRESOLVED (spread wider than bound)"
			case worse > d.Bound:
				verdict = "REGRESSED"
				code = 1
			}
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %+8.2f%% %6.0f%% %7.2f%%  %s\n", d.Name, ma, mb, 100*change, 100*d.Bound, 100*sp, verdict)
		}
	}
	// failed_share has an absolute bound.
	for _, wl := range workloadNames {
		va, vb := a.values(wl, "failed_share"), b.values(wl, "failed_share")
		if len(va) > 0 && len(vb) > 0 && medianFloat(vb) > medianFloat(va)+0.001 {
			fmt.Fprintf(w, "\n%s: failed_share rose from %g to %g: REGRESSED\n", wl, medianFloat(va), medianFloat(vb))
			code = 1
		}
	}
	if drift := countDrift(a, b); len(drift) > 0 {
		fmt.Fprintf(w, "\nDRIFT in the exact pim counts of tree_batch (a failure, not a regression):\n")
		for _, line := range drift {
			fmt.Fprintf(w, "  %s\n", line)
		}
		code = 1
	} else {
		fmt.Fprintf(w, "\nexact pim counts of tree_batch: identical across runs of equal seed and size\n")
	}
	return code
}

// disjoint reports whether every value of one side lies beyond every value
// of the other, with enough runs a side for that to mean something: two
// sets of three runs of one commit are disjoint one time in ten by chance,
// two sets of five one time in 126.
func disjoint(a, b []float64) bool {
	if len(a) < 5 || len(b) < 5 {
		return false
	}
	loA, hiA := extremes(a)
	loB, hiB := extremes(b)
	return hiA < loB || hiB < loA
}

func extremes(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// countDrift compares tree_batch's exact counts (all but the
// order-dependent ones) between the scored runs that share seed, seconds and
// quick flag.
func countDrift(a, b *side) []string {
	type key struct {
		seed    uint64
		seconds int
		quick   bool
	}
	first := map[key]map[string]int64{}
	var out []string
	for _, s := range []*side{a, b} {
		for _, f := range s.files {
			p := f.find("tree_batch", false)
			if p == nil || len(p.PimCounts) == 0 {
				continue
			}
			k := key{f.Provenance.Seed, f.Provenance.Seconds, f.Provenance.Quick}
			ref, ok := first[k]
			if !ok {
				first[k] = p.PimCounts
				continue
			}
			names := make([]string, 0, len(ref))
			for n := range ref {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				if ref[n] != p.PimCounts[n] && !orderDependent(n) {
					out = append(out, fmt.Sprintf("seed %d: %s = %d, then %d", k.seed, n, ref[n], p.PimCounts[n]))
				}
			}
		}
	}
	return out
}
