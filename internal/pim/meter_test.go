package pim

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// chargeRound meters one round of mixed traffic whose every-module charges
// go through charge; a ChargeAll round and a per-module-loop round must
// meter the same.
func chargeRound(m *Machine, charge func(r *Round, words, work int64)) *Round {
	r := m.BeginRound()
	r.CPUWork(11)
	r.CPUSpan(2)
	r.OnModules(func(ctx *ModuleCtx) {
		id := int64(ctx.ID())
		ctx.Work(id%3 + 1)
		ctx.Transfer(id % 4)
	})
	charge(r, 3, 2)
	charge(r, 0, 5)
	charge(r, 4, 0)
	r.Transfer(m.P()-1, 9)
	r.ModuleWork(0, 6)
	r.Finish()
	return r
}

func chargeLoop(r *Round, words, work int64) {
	for mod := 0; mod < r.m.P(); mod++ {
		r.Transfer(mod, words)
		r.ModuleWork(mod, work)
	}
}

func TestChargeAllEqualsPerModuleLoop(t *testing.T) {
	for _, p := range []int{1, 7, 64} {
		run := func(charge func(r *Round, words, work int64)) (Snapshot, Stats, []RoundRecord) {
			m := NewMachine(p, 16)
			obs := &recordingObserver{}
			m.SetObserver(obs)
			var metered Stats
			for i := 0; i < 3; i++ {
				metered = metered.Add(chargeRound(m, charge).Metered())
			}
			recs := obs.records()
			for i := range recs {
				recs[i].Start, recs[i].Wall = time.Time{}, 0
			}
			return m.SnapshotStats(), metered, recs
		}
		snap, metered, recs := run((*Round).ChargeAll)
		wantSnap, wantMetered, wantRecs := run(chargeLoop)
		if !reflect.DeepEqual(snap, wantSnap) {
			t.Errorf("P=%d: ChargeAll meters %+v, the loop %+v", p, snap, wantSnap)
		}
		if metered != wantMetered {
			t.Errorf("P=%d: ChargeAll rounds metered %+v, the loop's %+v", p, metered, wantMetered)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Errorf("P=%d: ChargeAll records %+v, the loop's %+v", p, recs, wantRecs)
		}
	}
}

func TestMachineTotalsMoveAtFinish(t *testing.T) {
	// The last module's program blocks after metering, once every other
	// module's program has metered. Until the round finishes, the machine
	// reads the totals of the rounds before it.
	const last = runnerP - 1
	m := NewMachine(runnerP, 1<<20)
	m.RunRound(func(r *Round) { r.OnModules(func(ctx *ModuleCtx) { ctx.Work(1); ctx.Transfer(1) }) })
	pre := m.SnapshotStats()

	var others sync.WaitGroup
	others.Add(last)
	blocked, release := make(chan struct{}), make(chan struct{})
	r := m.BeginRound()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.CPUWork(7)
		r.CPUSpan(1)
		r.ChargeAll(2, 3)
		r.OnModules(func(ctx *ModuleCtx) {
			ctx.Work(int64(ctx.ID()))
			ctx.Transfer(5)
			if ctx.ID() == last {
				close(blocked)
				<-release
				return
			}
			others.Done()
		})
		r.Finish()
	}()
	others.Wait()
	<-blocked
	if got := m.SnapshotStats(); !reflect.DeepEqual(got, pre) {
		t.Errorf("mid-round totals %+v, want the pre-round %+v", got, pre)
	}
	if got := m.Stats(); got != pre.Stats {
		t.Errorf("mid-round Stats %s, want the pre-round %s", got, pre.Stats)
	}
	close(release)
	<-done

	want := Snapshot{Stats: pre.Stats.Add(Stats{
		CPUWork:       7,
		CPUSpan:       1,
		PIMWork:       runnerP*(runnerP-1)/2 + 3*runnerP,
		PIMTime:       last + 3,
		Communication: 7 * runnerP,
		CommTime:      7,
		Rounds:        1,
	})}
	want.ModuleWork = make([]int64, runnerP)
	want.ModuleComm = make([]int64, runnerP)
	for i := range want.ModuleWork {
		want.ModuleWork[i] = pre.ModuleWork[i] + int64(i) + 3
		want.ModuleComm[i] = pre.ModuleComm[i] + 7
	}
	if got := m.SnapshotStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("totals after Finish %+v, want %+v", got, want)
	}
	if got := r.Metered(); got != want.Stats.Sub(pre.Stats) {
		t.Fatalf("Metered %+v, want %+v", got, want.Stats.Sub(pre.Stats))
	}
}

// BenchmarkMeterEvents prices the simulator's own bookkeeping: two workers
// share one round and make walk-shaped calls, each hop a Transfer plus a
// ModuleWork on a pseudo-random one of 64 modules, as the irregular
// traversals' walkers do. Each call is one event; rounds of 4096 hops are
// finished as they fill.
func BenchmarkMeterEvents(b *testing.B) {
	const (
		workers  = 2
		modules  = 64
		perRound = 4096
	)
	m := NewMachine(modules, 1<<22)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += perRound {
		hops := min(perRound, b.N-done)
		r := m.BeginRound()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				x := uint64(done + w)
				for i := w; i < hops; i += workers {
					x = Mix64(x)
					mod := int(x % modules)
					r.Transfer(mod, 3)
					r.ModuleWork(mod, 5)
				}
			}(w)
		}
		wg.Wait()
		r.Finish()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/event")
}
