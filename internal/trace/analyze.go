package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pimkd/internal/pim"
)

// LabelStat aggregates every round sharing a label. PIMTime/CommTime are
// the label's contributions to the machine's straggler-summed meters, so
// Share (against the report totals) is the label's critical-path share.
type LabelStat struct {
	Label    string
	Records  int64
	Rounds   int64
	PIMWork  int64
	PIMTime  int64
	Comm     int64
	CommTime int64
	CPUWork  int64
	Wall     time.Duration
	// MaxCommImb / MeanCommImb summarize the per-round comm max/mean
	// ratios (rounds with zero communication excluded from the mean).
	MaxCommImb  float64
	MeanCommImb float64

	sumCommImb float64
	commRounds int64
}

// Share is the label's critical-path share: its (PIMTime + CommTime)
// contribution over the trace total.
func (ls LabelStat) Share(tot Totals) float64 {
	den := tot.PIMTime + tot.CommTime
	if den == 0 {
		return 0
	}
	return float64(ls.PIMTime+ls.CommTime) / float64(den)
}

// Histogram buckets per-round comm max/mean ratios. Bucket i counts rounds
// with ratio <= UpperBounds[i] (the last bucket is unbounded); rounds that
// moved no words are not counted.
type Histogram struct {
	UpperBounds []float64
	Counts      []int64
}

// defaultHistBounds: ratio 1 is perfectly balanced (commTime = comm/P);
// the tail buckets are the rounds whose comm time diverges from comm/P.
var defaultHistBounds = []float64{1.25, 1.5, 2, 4, 8, 16}

// Report is the output of Analyze over a record window.
type Report struct {
	P          int
	Totals     Totals
	Labels     []LabelStat       // sorted by critical-path share, descending
	Stragglers []pim.RoundRecord // top-K rounds by per-round MaxWork
	CommHist   Histogram
	// ModuleWork / ModuleComm are cumulative per-module loads over the
	// window; HotModuleWork / HotModuleComm are their argmaxes (-1 when
	// the window is empty or all-zero).
	ModuleWork    []int64
	ModuleComm    []int64
	HotModuleWork int
	HotModuleComm int
}

// SumByPrefix aggregates every round whose label starts with prefix — or
// contains it as a later path segment, since machine-level label scopes
// (e.g. the serve layer's "serve/knn/batch=N") are prefixed onto nested
// rounds' own labels — into a single LabelStat. A replica's peer rebuild
// labels its restore rounds "fault/rebuild/cell=N", so
// SumByPrefix(recs, "fault/") is the total metered price of fault
// tolerance in a trace window.
func SumByPrefix(recs []pim.RoundRecord, prefix string) LabelStat {
	ls := LabelStat{Label: prefix + "*"}
	for _, rec := range recs {
		if !matchesPrefix(rec.Label, prefix) {
			continue
		}
		ls.Records++
		ls.Rounds += rec.Rounds
		ls.PIMWork += rec.TotalWork
		ls.PIMTime += rec.MaxWork
		ls.Comm += rec.TotalComm
		ls.CommTime += rec.MaxComm
		ls.CPUWork += rec.CPUWork
		ls.Wall += rec.Wall
	}
	return ls
}

// matchesPrefix reports whether label starts with prefix or contains it at
// a path-segment boundary.
func matchesPrefix(label, prefix string) bool {
	return strings.HasPrefix(label, prefix) || strings.Contains(label, "/"+prefix)
}

// Analyze computes the diagnosis report over recs, keeping the topK
// straggler rounds (by per-round max module work, i.e. by PIM-time
// contribution).
func Analyze(recs []pim.RoundRecord, topK int) *Report {
	if topK <= 0 {
		topK = 5
	}
	rep := &Report{
		CommHist:      Histogram{UpperBounds: defaultHistBounds, Counts: make([]int64, len(defaultHistBounds)+1)},
		HotModuleWork: -1,
		HotModuleComm: -1,
	}
	byLabel := map[string]*LabelStat{}
	for _, rec := range recs {
		if len(rec.ModWork) > rep.P {
			rep.P = len(rec.ModWork)
		}
	}
	rep.ModuleWork = make([]int64, rep.P)
	rep.ModuleComm = make([]int64, rep.P)

	for _, rec := range recs {
		rep.Totals.add(rec)
		ls := byLabel[rec.Label]
		if ls == nil {
			ls = &LabelStat{Label: rec.Label}
			byLabel[rec.Label] = ls
		}
		ls.Records++
		ls.Rounds += rec.Rounds
		ls.PIMWork += rec.TotalWork
		ls.PIMTime += rec.MaxWork
		ls.Comm += rec.TotalComm
		ls.CommTime += rec.MaxComm
		ls.CPUWork += rec.CPUWork
		ls.Wall += rec.Wall
		if rec.TotalComm > 0 {
			ratio := rec.CommImbalance()
			ls.commRounds++
			ls.sumCommImb += ratio
			if ratio > ls.MaxCommImb {
				ls.MaxCommImb = ratio
			}
			bucket := len(rep.CommHist.UpperBounds)
			for i, ub := range rep.CommHist.UpperBounds {
				if ratio <= ub {
					bucket = i
					break
				}
			}
			rep.CommHist.Counts[bucket]++
		}
		for i := range rec.ModWork {
			rep.ModuleWork[i] += rec.ModWork[i]
			rep.ModuleComm[i] += rec.ModComm[i]
		}
	}

	for _, ls := range byLabel {
		if ls.commRounds > 0 {
			ls.MeanCommImb = ls.sumCommImb / float64(ls.commRounds)
		}
		rep.Labels = append(rep.Labels, *ls)
	}
	sort.Slice(rep.Labels, func(i, j int) bool {
		si := rep.Labels[i].PIMTime + rep.Labels[i].CommTime
		sj := rep.Labels[j].PIMTime + rep.Labels[j].CommTime
		if si != sj {
			return si > sj
		}
		return rep.Labels[i].Label < rep.Labels[j].Label
	})

	// Top-K straggler rounds by per-round max module work.
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := recs[order[a]], recs[order[b]]
		if ra.MaxWork != rb.MaxWork {
			return ra.MaxWork > rb.MaxWork
		}
		return ra.Seq < rb.Seq
	})
	for _, idx := range order {
		if len(rep.Stragglers) == topK {
			break
		}
		rep.Stragglers = append(rep.Stragglers, recs[idx])
	}

	var maxW, maxC int64
	for i := 0; i < rep.P; i++ {
		if rep.ModuleWork[i] > maxW {
			maxW, rep.HotModuleWork = rep.ModuleWork[i], i
		}
		if rep.ModuleComm[i] > maxC {
			maxC, rep.HotModuleComm = rep.ModuleComm[i], i
		}
	}
	return rep
}

// WriteText renders the report as the human-readable summary printed by
// cmd/pimkd-trace and the E23 experiment.
func (rep *Report) WriteText(w io.Writer) {
	tot := rep.Totals
	fmt.Fprintf(w, "trace: %d rounds observed (%d BSP rounds charged), P=%d\n",
		tot.Records, tot.Rounds, rep.P)
	fmt.Fprintf(w, "totals: pimWork=%d pimTime=%d comm=%d commTime=%d cpuWork=%d wall=%s\n",
		tot.PIMWork, tot.PIMTime, tot.Comm, tot.CommTime, tot.CPUWork, tot.Wall.Round(time.Microsecond))

	fmt.Fprintf(w, "\nper-label aggregates (share = fraction of pimTime+commTime, the critical path):\n")
	fmt.Fprintf(w, "%-42s %7s %8s %10s %10s %10s %7s %9s\n",
		"label", "rounds", "share", "pimTime", "commTime", "comm", "cpu", "comm m/m")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 109))
	for _, ls := range rep.Labels {
		label := ls.Label
		if label == "" {
			label = "(unlabeled)"
		}
		fmt.Fprintf(w, "%-42s %7d %7.1f%% %10d %10d %10d %7d %9.2f\n",
			label, ls.Records, 100*ls.Share(tot), ls.PIMTime, ls.CommTime, ls.Comm, ls.CPUWork, ls.MeanCommImb)
	}

	fmt.Fprintf(w, "\ntop straggler rounds (by per-round max module work, the PIM-time driver):\n")
	fmt.Fprintf(w, "%6s %-42s %10s %10s %8s %8s %9s\n",
		"seq", "label", "maxWork", "straggler", "work m/m", "comm m/m", "wall")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 99))
	for _, rec := range rep.Stragglers {
		label := rec.Label
		if label == "" {
			label = "(unlabeled)"
		}
		fmt.Fprintf(w, "%6d %-42s %10d %10d %8.2f %8.2f %9s\n",
			rec.Seq, label, rec.MaxWork, rec.StragglerWork,
			rec.WorkImbalance(), rec.CommImbalance(), rec.Wall.Round(time.Microsecond))
	}

	fmt.Fprintf(w, "\ncomm-imbalance histogram (per-round comm max/mean; 1.0 means commTime = comm/P):\n")
	prev := " 1.00"
	for i, ub := range rep.CommHist.UpperBounds {
		fmt.Fprintf(w, "  (%s, %5.2f]: %d\n", prev, ub, rep.CommHist.Counts[i])
		prev = fmt.Sprintf("%5.2f", ub)
	}
	fmt.Fprintf(w, "  (%s,   inf): %d\n", prev, rep.CommHist.Counts[len(rep.CommHist.UpperBounds)])

	if rep.HotModuleWork >= 0 {
		fmt.Fprintf(w, "\nhottest module by work: #%d (work=%d, max/mean %.2f); by comm: #%d (comm=%d, max/mean %.2f)\n",
			rep.HotModuleWork, rep.ModuleWork[rep.HotModuleWork], pim.MaxLoadRatio(rep.ModuleWork),
			rep.HotModuleComm, rep.ModuleComm[rep.HotModuleComm], pim.MaxLoadRatio(rep.ModuleComm))
	}

	// Fault-recovery attribution: a peer rebuild's restore rounds carry
	// "fault/..." labels, so their aggregate is the measured overhead of
	// fault tolerance within this window.
	var fault LabelStat
	for _, ls := range rep.Labels {
		if matchesPrefix(ls.Label, "fault/") {
			fault.Records += ls.Records
			fault.Rounds += ls.Rounds
			fault.PIMTime += ls.PIMTime
			fault.CommTime += ls.CommTime
			fault.Comm += ls.Comm
		}
	}
	if fault.Records > 0 {
		fmt.Fprintf(w, "\nfault recovery: %d rounds restored cells from peer replicas, comm=%d words — %.1f%% of the critical path\n",
			fault.Rounds, fault.Comm, 100*fault.Share(tot))
	}
}
