// Command pimkd-bench regenerates the paper's tables, figures, and
// theorem-shaped claims (the experiment index of DESIGN.md §4). Run with
// no arguments to execute every experiment, or select with -exp; `-h`
// lists every registered experiment.
//
//	pimkd-bench -list
//	pimkd-bench -exp leafsearch,skew
//	pimkd-bench -quick            # shrunken sizes, seconds instead of minutes
//	pimkd-bench -exp skew -trace out.json   # capture a per-round trace
//	pimkd-bench -bench-json BENCH_$(date +%F).json   # wall-clock capture
//	pimkd-bench -exp construction -cpuprofile cpu.out   # pprof the hot paths
//
// With -trace, every PIM machine the experiments construct reports one
// record per BSP round to a shared tracer, and the run ends by writing a
// Chrome/Perfetto trace-event file: open it at https://ui.perfetto.dev
// (one track per module, stragglers are the long bars), or run
// `pimkd-trace out.json` for the aggregate text report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pimkd/internal/bench"
	"pimkd/internal/pim"
	"pimkd/internal/trace"
)

var (
	expFlag    = flag.String("exp", "", "comma-separated experiment ids (default: all)")
	listFlag   = flag.Bool("list", false, "list experiments and exit")
	quick      = flag.Bool("quick", false, "shrunken problem sizes")
	traceOut   = flag.String("trace", "", "write a Perfetto trace of every BSP round to this file")
	traceCap   = flag.Int("tracecap", trace.DefaultCapacity, "trace ring capacity in rounds (with -trace)")
	benchJSON  = flag.String("bench-json", "", "write per-experiment wall time, allocs, and metered stats as JSON to this file")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: pimkd-bench [-list] [-quick] [-exp id,id,...] [-bench-json out.json] [-trace out.json [-tracecap N]] [-cpuprofile f] [-memprofile f]\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nexperiments:\n")
		for _, e := range bench.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", e.ID, e.Summary)
		}
	}
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pimkd-bench:", err)
		os.Exit(1)
	}
}

// run does the whole invocation. It returns instead of exiting, so every
// deferred step — stopping the CPU profile, resetting the round observer,
// writing the heap profile — also runs when an experiment or a write fails.
func run() error {
	if *listFlag {
		for _, e := range bench.All() {
			fmt.Printf("%-14s %s\n               %s\n", e.ID, e.Artifact, e.Summary)
		}
		return nil
	}
	var ids []string
	for _, id := range strings.Split(*expFlag, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	// Reject a bad -exp before any profile or trace file is created.
	if _, err := bench.Select(ids); err != nil {
		return err
	}

	var tracer *trace.Tracer
	var baseObs pim.Observer
	if *traceOut != "" {
		tracer = trace.New(*traceCap)
		baseObs = tracer
		pim.SetDefaultObserver(tracer)
		defer pim.SetDefaultObserver(nil)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			runtime.GC()
			if err := writeFile(*memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "pimkd-bench:", err)
			}
		}()
	}

	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("pimkd-bench %s mode (%s %s/%s, GOMAXPROCS=%d) — PIM-Model metrics from the cost-metered simulator\n",
		mode, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
	if *benchJSON != "" {
		// Collected mode: every experiment path records wall time, allocs,
		// and metered round totals into the BENCH_*.json capture.
		rec, err := bench.RunAllCollect(os.Stdout, ids, *quick, baseObs)
		if err != nil {
			return err
		}
		if err := writeFile(*benchJSON, rec.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("\nbench: wrote %d experiment record(s) -> %s\n", len(rec.Experiments), *benchJSON)
	} else if err := bench.RunAll(os.Stdout, ids, *quick); err != nil {
		return err
	}

	if tracer != nil {
		recs := tracer.Records()
		if err := writeFile(*traceOut, func(w io.Writer) error { return trace.WritePerfetto(w, recs) }); err != nil {
			return err
		}
		tot := tracer.Totals()
		fmt.Printf("\ntrace: %d rounds captured (%d dropped from the %d-round ring) -> %s\n",
			tot.Records, tracer.Dropped(), *traceCap, *traceOut)
		fmt.Printf("trace: open in https://ui.perfetto.dev or summarize with `pimkd-trace %s`\n", *traceOut)
	}
	return nil
}

// writeFile creates path, hands it to write, and reports the first error of
// the write or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
