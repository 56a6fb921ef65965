package pim

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

func TestRoundDeadlineListsHungModule(t *testing.T) {
	const k = 5
	m := NewMachine(runnerP, 1<<20)
	m.SetRoundDeadline(20 * time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	err := recoverFault(t, func() {
		m.RunRound(func(r *Round) {
			r.OnModules(func(ctx *ModuleCtx) {
				if ctx.ID() == k {
					<-release
				}
			})
		})
	})
	var to *RoundTimeout
	if !errors.As(err, &to) {
		t.Fatalf("expected *RoundTimeout, got %v", err)
	}
	if !reflect.DeepEqual(to.Stragglers, []int{k}) {
		t.Fatalf("stragglers = %v, want [%d]", to.Stragglers, k)
	}
}

func TestNoModuleStartsAfterRoundTimeout(t *testing.T) {
	m := NewMachine(runnerP, 1<<20)
	m.SetRoundDeadline(20 * time.Millisecond)
	release := make(chan struct{})
	var started atomic.Int64
	err := recoverFault(t, func() {
		m.RunRound(func(r *Round) {
			r.OnModules(func(ctx *ModuleCtx) {
				started.Add(1)
				<-release // every program hangs, so every worker is stuck
			})
		})
	})
	close(release)
	var to *RoundTimeout
	if !errors.As(err, &to) {
		t.Fatalf("expected *RoundTimeout, got %v", err)
	}
	if len(to.Stragglers) == 0 || len(to.Stragglers) >= runnerP {
		t.Fatalf("stragglers = %v, want the few modules the workers started", to.Stragglers)
	}
	// The released workers find the modules they had not claimed cancelled.
	// No event marks a program that never starts, so watch for a while.
	time.Sleep(50 * time.Millisecond)
	if got := started.Load(); got != int64(len(to.Stragglers)) {
		t.Fatalf("%d programs started, want only the %d stragglers %v", got, len(to.Stragglers), to.Stragglers)
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
				r.OnModuleSubset([]int{2, 3, 61}, func(ctx *ModuleCtx) { ctx.Work(100) })
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

func TestSubDeadlineStallsOverlap(t *testing.T) {
	const (
		stalled = 32
		pause   = 40 * time.Millisecond
	)
	// Half the modules stall for pause and half crash into a handler that
	// sleeps for pause. Run one after another on a single worker they take
	// 32 pauses, far past the deadline; each blocked worker starts a spare,
	// so they overlap and the round takes about one pause.
	m := NewMachine(runnerP, 1<<20)
	m.SetRoundDeadline(300 * time.Millisecond)
	m.SetInjector(&scriptedInjector{
		crash: func(round int64, mod, attempt int) bool {
			return attempt == 0 && mod%2 == 1 && mod < stalled
		},
		stall: func(round int64, mod, attempt int) time.Duration {
			if mod%2 == 0 && mod < stalled {
				return pause
			}
			return 0
		},
	})
	m.SetRecoveryHandler(handlerFunc(func(f *ModuleFault) bool {
		time.Sleep(pause)
		return true
	}))
	var ran [runnerP]atomic.Bool
	err := recoverFault(t, func() {
		m.RunRound(func(r *Round) {
			r.OnModules(func(ctx *ModuleCtx) { ran[ctx.ID()].Store(true) })
		})
	})
	if err != nil {
		t.Fatalf("sub-deadline stalls and recoveries failed the round: %v", err)
	}
	for mod := range ran {
		if !ran[mod].Load() {
			t.Fatalf("module %d's program never ran", mod)
		}
	}
}

func TestRoundBufferNotReusedAfterTimeout(t *testing.T) {
	const k = 7
	program := func(ctx *ModuleCtx) {
		ctx.Work(int64(ctx.ID() + 1))
		ctx.Transfer(int64(ctx.ID()%3 + 1))
	}
	fresh := NewMachine(runnerP, 1<<20)
	want := fresh.BeginRound()
	want.OnModules(program)
	want.Finish()

	// Round 1 misses its deadline with module k's program still running.
	// The program outlives the round and meters into it during round 2: a
	// machine that lent round 1's buffer again would count those words and
	// that work in round 2.
	m := NewMachine(runnerP, 1<<20)
	m.SetRoundDeadline(20 * time.Millisecond)
	release, wrote := make(chan struct{}), make(chan struct{})
	r1 := m.BeginRound()
	err := recoverFault(t, func() {
		r1.OnModules(func(ctx *ModuleCtx) {
			if ctx.ID() == k {
				<-release
				ctx.Work(1000)
				ctx.Transfer(1000)
				close(wrote)
			}
		})
	})
	var rt *RoundTimeout
	if !errors.As(err, &rt) {
		t.Fatalf("round 1: expected *RoundTimeout, got %v", err)
	}
	r1.Finish()

	r2 := m.BeginRound()
	r2.OnModules(func(ctx *ModuleCtx) {
		if ctx.ID() == k {
			close(release)
			<-wrote
		}
		program(ctx)
	})
	r2.Finish()
	if got := r2.Metered(); got != want.Metered() {
		t.Fatalf("round after a timeout metered %+v, a fresh machine %+v", got, want.Metered())
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
