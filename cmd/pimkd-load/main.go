// Command pimkd-load is the open-loop load generator for the serving
// stack. It drives a single pimkd-server or the pimkd-router front door
// over HTTP with a fixed arrival schedule (Poisson or constant rate,
// optionally shaped into a ramp or a step overload), measures every
// request's latency from its scheduled arrival (no coordinated omission),
// and reports per-request-kind p50/p90/p99/p999 — optionally as a
// pimkd-bench/v1 JSON record alongside the bench harness's captures. It
// exits 1 if any request ended in a hard error, after printing the table
// and writing -json; sheds and generator drops are not errors.
//
//	pimkd-load -target http://127.0.0.1:7070 -rate 500 -duration 10s
//	pimkd-load -target http://127.0.0.1:7070 -shape step -factor 10 -warm 5s
//	pimkd-load -target http://127.0.0.1:8080 -mix 'knn=4,join=2,ingest=2,expire=1' -json LOAD.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"pimkd/internal/bench"
	"pimkd/internal/load"
)

func main() {
	var (
		target  = flag.String("target", "http://127.0.0.1:7070", "base URL of a pimkd-server or pimkd-router")
		mix     = flag.String("mix", load.DefaultMix, "request mix as kind=weight,... (kinds: "+strings.Join(load.Kinds, ", ")+")")
		rate    = flag.Float64("rate", 500, "base arrival rate, requests/second")
		dur     = flag.Duration("duration", 10*time.Second, "main phase duration")
		shape   = flag.String("shape", "flat", "rate profile: flat, ramp (rate→rate*factor), or step (warmup at rate, then rate*factor)")
		factor  = flag.Float64("factor", 10, "peak multiplier for -shape ramp and step")
		warm    = flag.Duration("warm", 5*time.Second, "warmup phase length for -shape step")
		steps   = flag.Int("steps", 10, "segments for -shape ramp")
		arrival = flag.String("arrival", "poisson", "arrival process: poisson or constant")
		seed    = flag.Int64("seed", 1, "schedule and workload seed (replayable)")
		dim     = flag.Int("dim", 2, "point dimensionality of the target's tree")
		k       = flag.Int("k", 8, "kNN fan")
		radius  = flag.Float64("r", 0.05, "spatial-join radius")
		window  = flag.Float64("window", 0.1, "range/aggregation box side length")
		maxOut  = flag.Int("max-outstanding", 4096, "in-flight cap; arrivals past it are dropped at the generator, never queued")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request deadline, measured from scheduled arrival")
		wait    = flag.Duration("wait-healthy", 0, "poll the target's /healthz then /readyz for up to this long before starting")
		jsonOut = flag.String("json", "", "write the summary as a pimkd-bench/v1 JSON record to this file")
	)
	flag.Parse()
	if err := run(*target, *mix, *rate, *dur, *shape, *factor, *warm, *steps,
		*arrival, *seed, *dim, *k, *radius, *window, *maxOut, *timeout, *wait, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "pimkd-load:", err)
		os.Exit(1)
	}
}

func run(target, mix string, rate float64, dur time.Duration, shape string, factor float64,
	warm time.Duration, steps int, arrival string, seed int64, dim, k int, radius, window float64,
	maxOut int, timeout, wait time.Duration, jsonOut string) error {
	var phases []load.Phase
	switch shape {
	case "flat":
		phases = []load.Phase{{Rate: rate, Duration: dur}}
	case "ramp":
		phases = load.Ramp(rate, rate*factor, dur, steps)
	case "step":
		phases = load.StepOverload(rate, factor, warm, dur)
	default:
		return fmt.Errorf("unknown -shape %q (want flat, ramp, or step)", shape)
	}
	var sched load.Schedule
	var err error
	switch arrival {
	case "poisson":
		sched, err = load.NewPoisson(phases, seed)
	case "constant":
		sched, err = load.NewConstant(phases)
	default:
		return fmt.Errorf("unknown -arrival %q (want poisson or constant)", arrival)
	}
	if err != nil {
		return err
	}

	if wait > 0 {
		if err := waitHealthy(target, wait); err != nil {
			return err
		}
	}

	tgt := &load.HTTPTarget{Base: target, Dim: dim, K: k, Radius: radius, Window: window}
	ops, err := tgt.Mix(mix)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Printf("pimkd-load: %s arrivals at %s, shape %s against %s\n", arrival, rateDesc(phases), shape, target)
	res, err := load.Run(ctx, load.Config{
		Ops:            ops,
		Schedule:       sched,
		Seed:           seed,
		MaxOutstanding: maxOut,
		Timeout:        timeout,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.String())

	if jsonOut != "" {
		rec := &bench.RunRecord{
			Schema:     "pimkd-bench/v1",
			Date:       time.Now().UTC(),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Experiments: []bench.Result{{
				ID:       "load",
				Artifact: fmt.Sprintf("open-loop %s/%s against %s", arrival, shape, target),
				WallNs:   res.Elapsed.Nanoseconds(),
				Metrics:  res.Metrics(),
			}},
		}
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	var hard int64
	for _, kr := range res.Kinds {
		hard += kr.Errors
	}
	if hard > 0 {
		return fmt.Errorf("%d requests ended in a hard error", hard)
	}
	return nil
}

// waitHealthy polls the target until it is actually ready to serve, so
// scripts can start servers and the generator together: first GET /healthz
// until the process answers (liveness), then GET /readyz until it reports
// 200 — a pimkd-server holds /readyz at 503 through WAL replay and peer
// rebuild, and a pimkd-router holds it while any cell lacks an in-sync
// replica. A target without a /readyz endpoint (404) counts as ready once
// healthy.
func waitHealthy(target string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	if err := pollOK(target+"/healthz", deadline, false); err != nil {
		return fmt.Errorf("target %s not healthy within %v: %v", target, budget, err)
	}
	if err := pollOK(target+"/readyz", deadline, true); err != nil {
		return fmt.Errorf("target %s not ready within %v: %v", target, budget, err)
	}
	return nil
}

// pollOK polls url until it answers 200 or deadline passes. With okOn404,
// a 404 is success (the endpoint does not exist on this target).
func pollOK(url string, deadline time.Time, okOn404 bool) error {
	var last error
	for {
		resp, err := http.Get(url)
		last = err
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK || (okOn404 && resp.StatusCode == http.StatusNotFound) {
				return nil
			}
			last = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return last
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func rateDesc(phases []load.Phase) string {
	if len(phases) == 1 {
		return fmt.Sprintf("%g/s for %v", phases[0].Rate, phases[0].Duration)
	}
	lo, hi := phases[0].Rate, phases[0].Rate
	var total time.Duration
	for _, ph := range phases {
		if ph.Rate < lo {
			lo = ph.Rate
		}
		if ph.Rate > hi {
			hi = ph.Rate
		}
		total += ph.Duration
	}
	return fmt.Sprintf("%g→%g/s over %v", lo, hi, total)
}
