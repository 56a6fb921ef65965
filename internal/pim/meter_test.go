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
func chargeRound(m *Machine, charge func(r *Round, words, work int64)) {
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
}

func chargeLoop(r *Round, words, work int64) {
	for mod := 0; mod < r.m.P(); mod++ {
		r.Transfer(mod, words)
		r.ModuleWork(mod, work)
	}
}

func TestChargeAllEqualsPerModuleLoop(t *testing.T) {
	for _, p := range []int{1, 7, 64} {
		run := func(charge func(r *Round, words, work int64)) (Snapshot, []Stats, []RoundRecord) {
			m := NewMachine(p, 16)
			obs := &recordingObserver{}
			m.SetObserver(obs)
			var deltas []Stats
			for i := 0; i < 3; i++ {
				pre := m.Stats()
				chargeRound(m, charge)
				deltas = append(deltas, m.Stats().Sub(pre))
			}
			recs := obs.records()
			for i := range recs {
				recs[i].Start, recs[i].Wall = time.Time{}, 0
			}
			return m.SnapshotStats(), deltas, recs
		}
		snap, deltas, recs := run((*Round).ChargeAll)
		wantSnap, wantDeltas, wantRecs := run(chargeLoop)
		if !reflect.DeepEqual(snap, wantSnap) {
			t.Errorf("P=%d: ChargeAll meters %+v, the loop %+v", p, snap, wantSnap)
		}
		if !reflect.DeepEqual(deltas, wantDeltas) {
			t.Errorf("P=%d: ChargeAll rounds moved the totals by %+v, the loop's by %+v", p, deltas, wantDeltas)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Errorf("P=%d: ChargeAll records %+v, the loop's %+v", p, recs, wantRecs)
		}
	}
}

// TestTallyFoldEqualsRoundMeters meters one round's traffic from four
// goroutines twice: straight into the round, and into one tally per
// goroutine that each folds once at its end. Both must meter the same
// totals, per-module loads and records, and a reset tally folds nothing.
func TestTallyFoldEqualsRoundMeters(t *testing.T) {
	const workers = 4
	traffic := func(g, p int, transfer, work func(mod int, n int64), cpu func(int64)) {
		for i := 0; i < 50; i++ {
			mod := (g*13 + i*7) % p
			transfer(mod, int64(i%5))
			work(mod, int64(g+1))
			cpu(int64(i % 2))
		}
	}
	for _, p := range []int{1, 7, 64} {
		run := func(meter func(r *Round, g int)) (Snapshot, []RoundRecord) {
			m := NewMachine(p, 16)
			obs := &recordingObserver{}
			m.SetObserver(obs)
			for round := 0; round < 2; round++ {
				m.RunRound(func(r *Round) {
					var wg sync.WaitGroup
					wg.Add(workers)
					for g := 0; g < workers; g++ {
						go func(g int) {
							defer wg.Done()
							meter(r, g)
						}(g)
					}
					wg.Wait()
				})
			}
			recs := obs.records()
			for i := range recs {
				recs[i].Start, recs[i].Wall = time.Time{}, 0
			}
			return m.SnapshotStats(), recs
		}
		snap, recs := run(func(r *Round, g int) {
			tl := NewTally(p)
			traffic(g, p, tl.Transfer, tl.ModuleWork, tl.CPUWork)
			r.Fold(tl)
			tl.Reset()
			r.Fold(tl)
		})
		wantSnap, wantRecs := run(func(r *Round, g int) {
			traffic(g, p, r.Transfer, r.ModuleWork, r.CPUWork)
		})
		if !reflect.DeepEqual(snap, wantSnap) {
			t.Errorf("P=%d: folded tallies meter %+v, the round's meters %+v", p, snap, wantSnap)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Errorf("P=%d: folded tallies record %+v, the round's meters %+v", p, recs, wantRecs)
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

	delta := Stats{
		CPUWork:       7,
		CPUSpan:       1,
		PIMWork:       runnerP*(runnerP-1)/2 + 3*runnerP,
		PIMTime:       last + 3,
		Communication: 7 * runnerP,
		CommTime:      7,
		Rounds:        1,
	}
	want := Snapshot{Stats: pre.Stats.Add(delta)}
	want.ModuleWork = make([]int64, runnerP)
	want.ModuleComm = make([]int64, runnerP)
	for i := range want.ModuleWork {
		want.ModuleWork[i] = pre.ModuleWork[i] + int64(i) + 3
		want.ModuleComm[i] = pre.ModuleComm[i] + 7
	}
	if got := m.SnapshotStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("totals after Finish %+v, want %+v", got, want)
	}
	if got := m.Stats().Sub(pre.Stats); got != delta {
		t.Fatalf("the round moved Stats by %+v, want %+v", got, delta)
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
