package pim

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The round-runner tests use P = 64 so that, at the -cpu 1,2,8 settings CI
// runs them with, a round always has fewer workers than modules.
const runnerP = 64

func TestModulePanicOthersStillRun(t *testing.T) {
	const k = 37
	m := NewMachine(runnerP, 1<<20)
	var ran [runnerP]atomic.Bool
	err := recoverFault(t, func() {
		m.RunRound(func(r *Round) {
			r.OnModules(func(ctx *ModuleCtx) {
				ran[ctx.ID()].Store(true)
				ctx.Work(1)
				if ctx.ID() == k {
					panic("module program bug")
				}
			})
		})
	})
	var mf *ModuleFault
	if !errors.As(err, &mf) {
		t.Fatalf("expected *ModuleFault, got %v", err)
	}
	if mf.Kind != FaultPanic || mf.Module != k || mf.Injected {
		t.Fatalf("wrong fault: %+v", mf)
	}
	for mod := range ran {
		if !ran[mod].Load() {
			t.Fatalf("module %d's program never ran", mod)
		}
	}
	if got := m.Stats().PIMWork; got != runnerP {
		t.Fatalf("PIMWork = %d, want %d", got, runnerP)
	}
}

func TestRoundMetersEqualAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) Snapshot {
		runtime.GOMAXPROCS(procs)
		m := NewMachine(runnerP, 256)
		for round := 0; round < 3; round++ {
			m.RunRound(func(r *Round) {
				r.OnModules(func(ctx *ModuleCtx) {
					id := int64(ctx.ID())
					ctx.Work(id*id%7 + int64(round))
					ctx.Transfer(id%5 + 1)
					ctx.Round().Transfer(int((id*13)%runnerP), 3)
				})
				r.OnModules(func(ctx *ModuleCtx) {
					if id := ctx.ID(); id != 2 && id != 3 && id != 61 {
						return
					}
					ctx.Work(100)
				})
			})
		}
		return m.SnapshotStats()
	}
	want := run(1)
	for _, procs := range []int{2, 8} {
		if got := run(procs); !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d meters %+v, want %+v (GOMAXPROCS=1)", procs, got, want)
		}
	}
}

func TestOnModulesRoundAllocs(t *testing.T) {
	m := NewMachine(runnerP, 1<<20)
	allocs := testing.AllocsPerRun(200, func() {
		m.RunRound(func(r *Round) {
			r.OnModules(func(ctx *ModuleCtx) {})
		})
	})
	if allocs > 8 {
		t.Fatalf("an empty OnModules round at P=%d allocates %.1f times, want ≤ 8", runnerP, allocs)
	}
}

func TestRoundBufferConcurrentRounds(t *testing.T) {
	// Rounds driven from several goroutines at once each take their own
	// buffer: no two rounds in flight ever share meters.
	const (
		drivers = 4
		rounds  = 50
	)
	m := NewMachine(runnerP, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < drivers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r := m.BeginRound()
				r.OnModules(func(ctx *ModuleCtx) { ctx.Work(1); ctx.Transfer(int64(g + 1)) })
				r.Finish()
				if got := r.Metered(); got.PIMWork != runnerP || got.Communication != int64(runnerP*(g+1)) {
					t.Errorf("driver %d round %d metered %+v, want %d work and %d words", g, i, got, runnerP, runnerP*(g+1))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSnapshotIntoReusesVectors(t *testing.T) {
	// Bracketing an operation with in-place snapshots gives the same delta
	// as SnapshotStats and Sub, and allocates nothing once the vectors
	// exist.
	m := NewMachine(runnerP, 1<<20)
	var pre, post Snapshot
	m.SnapshotStatsInto(&pre)
	before := m.SnapshotStats()
	m.RunRound(func(r *Round) {
		r.OnModules(func(ctx *ModuleCtx) { ctx.Work(int64(ctx.ID())); ctx.Transfer(2) })
	})
	m.SnapshotStatsInto(&post)
	want := m.SnapshotStats().Sub(before)
	post.SubInto(pre, &post)
	if !reflect.DeepEqual(post, want) {
		t.Fatalf("in-place delta %+v, want %+v", post, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.SnapshotStatsInto(&pre)
		m.SnapshotStatsInto(&post)
		post.SubInto(pre, &post)
	})
	if allocs != 0 {
		t.Fatalf("in-place snapshots allocate %.1f times, want 0", allocs)
	}
}
