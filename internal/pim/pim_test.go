package pim

import (
	"sync"
	"testing"
)

func TestRoundMaxSemantics(t *testing.T) {
	m := NewMachine(4, 1024)
	m.RunRound(func(r *Round) {
		r.OnModules(func(ctx *ModuleCtx) {
			// Module i does i*10 work and moves i*5 words.
			ctx.Work(int64(ctx.ID() * 10))
			ctx.Transfer(int64(ctx.ID() * 5))
		})
	})
	st := m.Stats()
	if st.PIMWork != 60 {
		t.Fatalf("PIMWork %d want 60", st.PIMWork)
	}
	if st.PIMTime != 30 {
		t.Fatalf("PIMTime %d want 30 (max module)", st.PIMTime)
	}
	if st.Communication != 30 {
		t.Fatalf("Communication %d want 30", st.Communication)
	}
	if st.CommTime != 15 {
		t.Fatalf("CommTime %d want 15 (max module)", st.CommTime)
	}
	if st.Rounds != 1 {
		t.Fatalf("Rounds %d", st.Rounds)
	}
}

func TestRoundsAccumulate(t *testing.T) {
	m := NewMachine(2, 16)
	for i := 0; i < 3; i++ {
		m.RunRound(func(r *Round) {
			r.Transfer(0, 7)
		})
	}
	st := m.Stats()
	if st.Rounds != 3 || st.CommTime != 21 || st.Communication != 21 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCPUPhaseNoRound(t *testing.T) {
	m := NewMachine(2, 16)
	m.CPUPhase(100, 10)
	st := m.Stats()
	if st.CPUWork != 100 || st.CPUSpan != 10 || st.Rounds != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestModuleWorkAttribution(t *testing.T) {
	m := NewMachine(3, 16)
	m.RunRound(func(r *Round) {
		r.ModuleWork(2, 42)
	})
	work, _ := m.ModuleLoads()
	if work[2] != 42 || work[0] != 0 {
		t.Fatalf("loads %v", work)
	}
	if m.Stats().PIMTime != 42 {
		t.Fatalf("PIMTime %d", m.Stats().PIMTime)
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{CPUWork: 10, Communication: 5, Rounds: 2}
	b := Stats{CPUWork: 4, Communication: 1, Rounds: 1}
	d := a.Sub(b)
	if d.CPUWork != 6 || d.Communication != 4 || d.Rounds != 1 {
		t.Fatalf("sub %+v", d)
	}
	s := d.Add(b)
	if s != a {
		t.Fatalf("add %+v", s)
	}
	if a.TotalWork() != 10 {
		t.Fatalf("total %d", a.TotalWork())
	}
}

func TestResetStats(t *testing.T) {
	m := NewMachine(2, 16)
	m.CPUPhase(5, 5)
	m.RunRound(func(r *Round) { r.Transfer(1, 3); r.ModuleWork(1, 2) })
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatalf("reset left %+v", m.Stats())
	}
	w, c := m.ModuleLoads()
	if w[1] != 0 || c[1] != 0 {
		t.Fatal("module loads not reset")
	}
}

func TestSnapshotStats(t *testing.T) {
	m := NewMachine(3, 16)
	m.RunRound(func(r *Round) {
		r.Transfer(1, 7)
		r.ModuleWork(2, 4)
	})
	pre := m.SnapshotStats()
	if pre.Stats != m.Stats() {
		t.Fatalf("snapshot stats %+v vs %+v", pre.Stats, m.Stats())
	}
	if pre.ModuleComm[1] != 7 || pre.ModuleWork[2] != 4 || pre.ModuleComm[0] != 0 {
		t.Fatalf("snapshot vectors %v %v", pre.ModuleWork, pre.ModuleComm)
	}
	m.RunRound(func(r *Round) {
		r.Transfer(1, 3)
		r.ModuleWork(0, 5)
	})
	d := m.SnapshotStats().Sub(pre)
	if d.Stats.Communication != 3 || d.Stats.Rounds != 1 {
		t.Fatalf("delta stats %+v", d.Stats)
	}
	if d.ModuleComm[1] != 3 || d.ModuleWork[0] != 5 || d.ModuleWork[2] != 0 {
		t.Fatalf("delta vectors %v %v", d.ModuleWork, d.ModuleComm)
	}
	// The snapshot is a copy: further metering must not alter it.
	if pre.ModuleComm[1] != 7 {
		t.Fatal("snapshot aliases live meters")
	}
}

func TestHashRangeAndSpread(t *testing.T) {
	m := NewMachine(16, 16)
	counts := make([]int, 16)
	for i := uint64(0); i < 16000; i++ {
		h := m.Hash(i)
		if h < 0 || h >= 16 {
			t.Fatalf("hash out of range: %d", h)
		}
		counts[h]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("module %d got %d of 16000 (poor spread)", i, c)
		}
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	diff := 0
	const trials = 1000
	for i := uint64(0); i < trials; i++ {
		a := Mix64(i)
		b := Mix64(i ^ 1)
		x := a ^ b
		for x != 0 {
			diff++
			x &= x - 1
		}
	}
	avg := float64(diff) / trials
	if avg < 24 || avg > 40 {
		t.Fatalf("avalanche average %g bits", avg)
	}
}

func TestMaxLoadRatio(t *testing.T) {
	if MaxLoadRatio([]int64{0, 0}) != 0 {
		t.Fatal("zero vector ratio")
	}
	if r := MaxLoadRatio([]int64{10, 10, 10, 10}); r != 1 {
		t.Fatalf("uniform ratio %g", r)
	}
	if r := MaxLoadRatio([]int64{40, 0, 0, 0}); r != 4 {
		t.Fatalf("concentrated ratio %g", r)
	}
}

func TestOnModulesConcurrentSafety(t *testing.T) {
	m := NewMachine(8, 16)
	var mu sync.Mutex
	seen := map[int]bool{}
	m.RunRound(func(r *Round) {
		r.OnModules(func(ctx *ModuleCtx) {
			mu.Lock()
			seen[ctx.ID()] = true
			mu.Unlock()
			ctx.Work(1)
		})
	})
	if len(seen) != 8 {
		t.Fatalf("only %d modules ran", len(seen))
	}
}

func TestFinishIdempotent(t *testing.T) {
	m := NewMachine(2, 16)
	r := m.BeginRound()
	r.Transfer(0, 5)
	r.Finish()
	r.Finish()
	if m.Stats().Rounds != 1 || m.Stats().CommTime != 5 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestRoundLawExtraRounds(t *testing.T) {
	// A logical round moving more words than the cache holds costs extra
	// BSP rounds (the Ω(c/M + s) law): 10 words through a 4-word cache is
	// 1 + 10/4 = 3 rounds.
	m := NewMachine(2, 4)
	m.RunRound(func(r *Round) {
		r.Transfer(0, 6)
		r.Transfer(1, 4)
	})
	if got := m.Stats().Rounds; got != 3 {
		t.Fatalf("rounds %d want 3", got)
	}
	// A small round is one round.
	m.ResetStats()
	m.RunRound(func(r *Round) { r.Transfer(0, 3) })
	if got := m.Stats().Rounds; got != 1 {
		t.Fatalf("rounds %d want 1", got)
	}
}

func TestNewMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMachine(0, 16)
}
