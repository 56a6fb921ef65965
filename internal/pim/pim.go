// Package pim implements the Processing-In-Memory (PIM) Model of Kang et
// al. (SPAA'21) as an executable, cost-metered machine: a host CPU with an
// M-word cache plus P PIM modules, running programs in bulk-synchronous
// (BSP) rounds.
//
// The simulator does two jobs at once:
//
//  1. It *executes* module programs concurrently, on a set of worker
//     goroutines per round, so the algorithms in this repository are
//     genuinely parallel programs (not just cost formulas).
//  2. It *meters* exactly the quantities the paper's theorems bound:
//     CPU work, CPU span (an analytic proxy logged by phases), total PIM
//     work, PIM time (sum over rounds of the max per-module work),
//     total off-chip communication in words, and communication time (sum
//     over rounds of the max words moved to/from any single module).
//
// The model restrictions are honored structurally: modules never touch each
// other's state directly — all cross-module data movement flows through
// Round.Transfer, which charges the off-chip channel of the module involved.
//
// Metering is per round. Every metering call writes only the meters of the
// round in flight; Round.Finish folds them into the machine's totals once,
// at the barrier, in the same pass that takes the per-module maxima. The
// machine-wide totals therefore move only at round boundaries, and a
// metering call costs one uncontended add however many workers share the
// round. Round.ChargeAll charges all P modules with one call, and
// Round.Fold adds a Tally, a worker's private meters, in one call.
package pim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stats aggregates the PIM-Model cost metrics accumulated by a Machine.
// All fields are totals since machine construction (or the last ResetStats).
type Stats struct {
	// CPUWork is the total number of CPU instructions (model units).
	CPUWork int64
	// CPUSpan is the analytic critical-path length of the CPU computation,
	// logged phase by phase by the algorithms.
	CPUSpan int64
	// PIMWork is the total work executed across all PIM cores.
	PIMWork int64
	// PIMTime is the sum over rounds of the maximum work on any PIM core in
	// that round (the model's per-round straggler metric).
	PIMTime int64
	// Communication is the total number of words moved between the CPU and
	// the PIM modules.
	Communication int64
	// CommTime is the sum over rounds of the maximum number of words moved
	// to/from any single PIM module in that round.
	CommTime int64
	// Rounds is the number of BSP rounds executed.
	Rounds int64
}

// Sub returns s - o, field by field. It is used to measure the cost of an
// individual operation as a delta between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		CPUWork:       s.CPUWork - o.CPUWork,
		CPUSpan:       s.CPUSpan - o.CPUSpan,
		PIMWork:       s.PIMWork - o.PIMWork,
		PIMTime:       s.PIMTime - o.PIMTime,
		Communication: s.Communication - o.Communication,
		CommTime:      s.CommTime - o.CommTime,
		Rounds:        s.Rounds - o.Rounds,
	}
}

// Add returns s + o, field by field.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		CPUWork:       s.CPUWork + o.CPUWork,
		CPUSpan:       s.CPUSpan + o.CPUSpan,
		PIMWork:       s.PIMWork + o.PIMWork,
		PIMTime:       s.PIMTime + o.PIMTime,
		Communication: s.Communication + o.Communication,
		CommTime:      s.CommTime + o.CommTime,
		Rounds:        s.Rounds + o.Rounds,
	}
}

// TotalWork returns CPU work plus PIM work, the paper's "total work" column.
func (s Stats) TotalWork() int64 { return s.CPUWork + s.PIMWork }

func (s Stats) String() string {
	return fmt.Sprintf(
		"cpuWork=%d cpuSpan=%d pimWork=%d pimTime=%d comm=%d commTime=%d rounds=%d",
		s.CPUWork, s.CPUSpan, s.PIMWork, s.PIMTime, s.Communication, s.CommTime, s.Rounds)
}

// RoundRecord is the per-round observation delivered to an Observer when a
// BSP round finishes. It carries exactly the quantities the paper's bounds
// are stated over — per-module work and communication vectors, whose maxima
// are the round's contribution to PIMTime and CommTime — plus the label the
// algorithm attached and the wall time the simulated round took.
type RoundRecord struct {
	// Seq is a 1-based sequence number assigned by the observer (the
	// machine leaves it zero).
	Seq int64
	// Label identifies the round site, composed from the machine's label
	// scope stack (Machine.PushLabel) and the round's own Round.Label,
	// joined with "/". Empty for unlabeled rounds.
	Label string
	// Start is when the round began; Wall is its wall-clock duration.
	Start time.Time
	Wall  time.Duration
	// CPUWork and CPUSpan are the CPU units logged during this round
	// (CPUPhase calls outside rounds are not attributed to any record).
	CPUWork int64
	CPUSpan int64
	// ModWork[i] and ModComm[i] are module i's work and off-chip words in
	// this round. Both have length P.
	ModWork []int64
	ModComm []int64
	// TotalWork and TotalComm are the vector sums (the round's contribution
	// to Stats.PIMWork and Stats.Communication).
	TotalWork int64
	TotalComm int64
	// MaxWork and MaxComm are the vector maxima — the round's contribution
	// to Stats.PIMTime and Stats.CommTime (the straggler magnitudes).
	MaxWork int64
	MaxComm int64
	// StragglerWork and StragglerComm are the module ids achieving MaxWork
	// and MaxComm (lowest id on ties), or -1 when the respective max is 0.
	StragglerWork int
	StragglerComm int
	// Rounds is the number of BSP rounds this logical round was charged:
	// 1 plus the cache-overflow extras of the Ω(c/M + s) round law.
	Rounds int64
}

// WorkImbalance is the round's max/mean per-module work ratio (0 for an
// all-zero vector). A PIM-balanced round keeps this O(1).
func (rec RoundRecord) WorkImbalance() float64 { return MaxLoadRatio(rec.ModWork) }

// CommImbalance is the round's max/mean per-module communication ratio.
// The model predicts CommTime ≈ Communication/P exactly when this is ≈ 1;
// rounds where it diverges are the ones whose comm time exceeds comm/P.
func (rec RoundRecord) CommImbalance() float64 { return MaxLoadRatio(rec.ModComm) }

// Observer receives one RoundRecord per finished round. Implementations
// must be safe for use from the goroutine calling Round.Finish and must not
// retain the record's slices beyond the call only if they mutate them (the
// machine hands over freshly allocated copies, so keeping them is fine).
// internal/trace provides the standard ring-buffer implementation.
type Observer interface {
	ObserveRound(rec RoundRecord)
}

// obsHolder boxes an Observer so it can live in an atomic.Pointer (interface
// values cannot be stored atomically without a wrapper).
type obsHolder struct{ obs Observer }

// defaultObserver, when set, is attached to every Machine created
// afterwards. It exists for process-wide tooling (pimkd-bench -trace)
// that must observe machines constructed deep inside experiment code.
var defaultObserver atomic.Pointer[obsHolder]

// SetDefaultObserver installs obs as the observer every subsequently
// created Machine starts with (nil clears it). Existing machines are not
// affected; SetObserver overrides per machine.
func SetDefaultObserver(obs Observer) {
	if obs == nil {
		defaultObserver.Store(nil)
		return
	}
	defaultObserver.Store(&obsHolder{obs: obs})
}

// Machine is a PIM-Model machine with P modules and an M-word CPU cache.
// A Machine is safe for use by a single logical algorithm at a time;
// metering calls within a round may come from concurrent goroutines. Those
// calls meter into their round, and the machine's totals gain the round's
// cost when it finishes (Round.Finish), so Stats, SnapshotStats and
// ModuleLoads move only at round boundaries. CPUPhase, which meters outside
// any round, adds to the totals at once.
type Machine struct {
	p      int
	cacheM int

	cpuWork atomic.Int64
	cpuSpan atomic.Int64
	pimWork atomic.Int64
	pimTime atomic.Int64
	comm    atomic.Int64
	commT   atomic.Int64
	rounds  atomic.Int64

	// Per-module cumulative meters, for load-balance inspection.
	moduleWork []atomic.Int64
	moduleComm []atomic.Int64
	// buf is the round scratch the machine lends to one round at a time
	// (see roundBuf); nil while a round holds it.
	buf atomic.Pointer[roundBuf]

	// obs is the round observer; nil (the default) keeps rounds unobserved
	// at the cost of a single atomic load per BeginRound.
	obs atomic.Pointer[obsHolder]
	// labelMu guards labels, the stack of label scopes prefixed onto every
	// observed round's label.
	labelMu sync.Mutex
	labels  []string

	// containedFaults counts the module-program panics OnModules
	// re-raised (see ContainedFaults).
	containedFaults atomic.Int64
}

// NewMachine creates a machine with p PIM modules and a CPU cache of cacheM
// words. It panics if p < 1.
func NewMachine(p, cacheM int) *Machine {
	if p < 1 {
		panic("pim: machine needs at least one module")
	}
	m := &Machine{
		p:          p,
		cacheM:     cacheM,
		moduleWork: make([]atomic.Int64, p),
		moduleComm: make([]atomic.Int64, p),
	}
	m.obs.Store(defaultObserver.Load())
	return m
}

// SetObserver installs obs as the machine's round observer (nil disables
// observation). The disabled fast path costs one atomic nil-check per
// round; no records, copies, or timestamps are produced.
func (m *Machine) SetObserver(obs Observer) {
	if obs == nil {
		m.obs.Store(nil)
		return
	}
	m.obs.Store(&obsHolder{obs: obs})
}

// Observer returns the machine's current round observer, or nil.
func (m *Machine) Observer() Observer {
	if h := m.obs.Load(); h != nil {
		return h.obs
	}
	return nil
}

// PushLabel pushes a label scope onto the machine: until the returned pop
// function runs, every observed round's label is prefixed with s (scopes
// joined by "/"). The serving layer brackets each coalesced batch this way
// (e.g. "serve/knn/batch=17") so every round an operation triggers is
// attributed to the batch that caused it. Pop in LIFO order.
func (m *Machine) PushLabel(s string) (pop func()) {
	m.labelMu.Lock()
	m.labels = append(m.labels, s)
	m.labelMu.Unlock()
	return func() {
		m.labelMu.Lock()
		if n := len(m.labels); n > 0 {
			m.labels = m.labels[:n-1]
		}
		m.labelMu.Unlock()
	}
}

// labelPrefix joins the current label scopes.
func (m *Machine) labelPrefix() string {
	m.labelMu.Lock()
	defer m.labelMu.Unlock()
	if len(m.labels) == 0 {
		return ""
	}
	return strings.Join(m.labels, "/")
}

// P returns the number of PIM modules.
func (m *Machine) P() int { return m.p }

// CacheM returns the CPU cache size in words.
func (m *Machine) CacheM() int { return m.cacheM }

// Stats returns a snapshot of the accumulated cost metrics.
func (m *Machine) Stats() Stats {
	return Stats{
		CPUWork:       m.cpuWork.Load(),
		CPUSpan:       m.cpuSpan.Load(),
		PIMWork:       m.pimWork.Load(),
		PIMTime:       m.pimTime.Load(),
		Communication: m.comm.Load(),
		CommTime:      m.commT.Load(),
		Rounds:        m.rounds.Load(),
	}
}

// Snapshot couples the scalar Stats totals with the per-module work and
// communication vectors, captured in one call. It is the unit consumers
// should diff when attributing cost to an individual operation: the serving
// layer and the benchmark harness take a Snapshot before and after a batch
// and subtract.
type Snapshot struct {
	Stats Stats
	// ModuleWork[i] is the cumulative PIM work attributed to module i.
	ModuleWork []int64
	// ModuleComm[i] is the cumulative off-chip words moved to/from module i.
	ModuleComm []int64
}

// Sub returns s - o field by field, including the per-module vectors.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	var d Snapshot
	s.SubInto(o, &d)
	return d
}

// SubInto stores s - o in dst, reusing dst's vectors when they are long
// enough. dst may be s itself.
func (s Snapshot) SubInto(o Snapshot, dst *Snapshot) {
	dst.Stats = s.Stats.Sub(o.Stats)
	dst.ModuleWork = resize(dst.ModuleWork, len(s.ModuleWork))
	dst.ModuleComm = resize(dst.ModuleComm, len(s.ModuleComm))
	for i := range s.ModuleWork {
		dst.ModuleWork[i] = s.ModuleWork[i] - o.ModuleWork[i]
		dst.ModuleComm[i] = s.ModuleComm[i] - o.ModuleComm[i]
	}
}

// resize returns v with length n, reusing its backing array when it fits.
func resize(v []int64, n int) []int64 {
	if cap(v) < n {
		return make([]int64, n)
	}
	return v[:n]
}

// SnapshotStats returns a copy of every meter — the scalar totals plus the
// per-module work/communication vectors — in a single call. Each field is
// loaded atomically. The totals move only at round boundaries: a round in
// flight shows in none of them until its Finish, and the snapshot is fully
// consistent whenever no round is finishing, which is how the serving
// scheduler and the experiment harness use it.
func (m *Machine) SnapshotStats() Snapshot {
	var s Snapshot
	m.SnapshotStatsInto(&s)
	return s
}

// SnapshotStatsInto is SnapshotStats filling dst in place, reusing its
// vectors when they are long enough, so a caller that brackets every
// operation with two snapshots allocates nothing per operation. Like
// SnapshotStats it reads the totals as of the last finished round.
func (m *Machine) SnapshotStatsInto(dst *Snapshot) {
	dst.Stats = m.Stats()
	dst.ModuleWork = resize(dst.ModuleWork, m.p)
	dst.ModuleComm = resize(dst.ModuleComm, m.p)
	for i := 0; i < m.p; i++ {
		dst.ModuleWork[i] = m.moduleWork[i].Load()
		dst.ModuleComm[i] = m.moduleComm[i].Load()
	}
}

// ResetStats zeroes all meters (global and per-module).
func (m *Machine) ResetStats() {
	m.cpuWork.Store(0)
	m.cpuSpan.Store(0)
	m.pimWork.Store(0)
	m.pimTime.Store(0)
	m.comm.Store(0)
	m.commT.Store(0)
	m.rounds.Store(0)
	for i := range m.moduleWork {
		m.moduleWork[i].Store(0)
		m.moduleComm[i].Store(0)
	}
}

// ModuleLoads returns the cumulative per-module (work, communication)
// vectors, for inspecting load balance across the whole run.
func (m *Machine) ModuleLoads() (work, comm []int64) {
	work = make([]int64, m.p)
	comm = make([]int64, m.p)
	for i := 0; i < m.p; i++ {
		work[i] = m.moduleWork[i].Load()
		comm[i] = m.moduleComm[i].Load()
	}
	return work, comm
}

// Round is one BSP round in flight. The CPU side may log work/span and move
// words to/from modules; OnModules runs a program concurrently on every
// module. Every metering call writes only the round's own meters; calling
// Finish folds them, with the round's per-module maxima, into the machine
// totals.
type Round struct {
	m        *Machine
	modWork  []atomic.Int64
	modComm  []atomic.Int64
	finished bool

	// buf is the scratch this round took from its machine: modWork and
	// modComm are its meters, and its module run serves OnModules while
	// runBusy is unset.
	buf     *roundBuf
	runBusy atomic.Bool

	// Observation state; obs/start/label are populated only when the
	// machine has an observer, cpuW/cpuS always (fold adds them to the
	// machine).
	obs   Observer
	start time.Time
	label string
	cpuW  atomic.Int64
	cpuS  atomic.Int64
}

// roundBuf is the scratch one round needs whatever its width: P work and
// P communication meters, the every-module meters and one module run with
// its slots. A machine lends its buffer to one round at a time (BeginRound
// takes it; Finish, or RunRound's panic path, gives it back), so a round
// costs the same garbage however few operations share it; a round that
// finds the buffer lent out — one of two rounds in flight on the machine —
// gets a fresh one.
type roundBuf struct {
	modWork []atomic.Int64
	modComm []atomic.Int64
	// allWork and allComm are what ChargeAll charged every module; fold
	// and emit add them to each module's own meter.
	allWork atomic.Int64
	allComm atomic.Int64
	run     moduleRun
}

func newRoundBuf(p int) *roundBuf {
	b := &roundBuf{modWork: make([]atomic.Int64, p), modComm: make([]atomic.Int64, p)}
	b.run.loop = b.run.work
	return b
}

// BeginRound starts a BSP round.
func (m *Machine) BeginRound() *Round {
	buf := m.buf.Swap(nil)
	if buf == nil {
		buf = newRoundBuf(m.p)
	} else {
		clear(buf.modWork)
		clear(buf.modComm)
		buf.allWork.Store(0)
		buf.allComm.Store(0)
	}
	r := &Round{m: m, modWork: buf.modWork, modComm: buf.modComm, buf: buf}
	if h := m.obs.Load(); h != nil {
		r.obs = h.obs
		r.start = time.Now()
	}
	return r
}

// Label names this round for the observer (e.g. "core/search:wave"). The
// machine's PushLabel scopes are prefixed onto it at Finish. A no-op on
// unobserved rounds. Call it from the goroutine driving the round, not
// from inside OnModules programs.
func (r *Round) Label(s string) {
	if r.obs != nil {
		r.label = s
	}
}

// CPUWork logs n units of CPU computation in this round.
func (r *Round) CPUWork(n int64) { r.cpuW.Add(n) }

// CPUSpan logs n units of CPU critical-path length in this round.
func (r *Round) CPUSpan(n int64) { r.cpuS.Add(n) }

// Transfer logs the movement of words of data between the CPU and module
// mod (either direction — the model charges the off-chip channel the same
// way for reads and writes). It is safe to call concurrently. It meters
// into the round only; the machine totals gain the words at Finish.
func (r *Round) Transfer(mod int, words int64) {
	if words != 0 {
		r.modComm[mod].Add(words)
	}
}

// ModuleWork attributes n units of PIM-core work to module mod from outside
// an OnModules program. Irregular computations (per-query walks that hop
// between modules) use this to keep per-module attribution faithful while
// executing on worker goroutines. Safe for concurrent use. Like Transfer it
// meters into the round only, until Finish.
func (r *Round) ModuleWork(mod int, n int64) { r.modWork[mod].Add(n) }

// Tally is a private set of round meters: P module work words, P module
// communication words and CPU work, written without atomics by one
// goroutine. A parallel traversal gives each of its chunks a tally and
// folds it into the round once, when the chunk ends (Round.Fold), instead
// of adding to the round's shared meters at every node touch. Its metering
// methods charge exactly what the Round methods of the same name would.
type Tally struct {
	work, comm []int64
	cpu        int64
}

// NewTally returns an empty tally for a machine of p modules.
func NewTally(p int) *Tally {
	return &Tally{work: make([]int64, p), comm: make([]int64, p)}
}

// Reset empties the tally.
func (t *Tally) Reset() {
	clear(t.work)
	clear(t.comm)
	t.cpu = 0
}

// Transfer logs words moved between the CPU and module mod.
func (t *Tally) Transfer(mod int, words int64) { t.comm[mod] += words }

// ModuleWork logs n units of PIM-core work on module mod.
func (t *Tally) ModuleWork(mod int, n int64) { t.work[mod] += n }

// CPUWork logs n units of CPU computation.
func (t *Tally) CPUWork(n int64) { t.cpu += n }

// Fold adds everything t metered to the round; like Transfer and
// ModuleWork it meters into the round only, until Finish. Concurrent Folds
// of distinct tallies are safe. t is left as it was.
func (r *Round) Fold(t *Tally) {
	for i, w := range t.work {
		if w != 0 {
			r.modWork[i].Add(w)
		}
	}
	for i, c := range t.comm {
		if c != 0 {
			r.modComm[i].Add(c)
		}
	}
	if t.cpu != 0 {
		r.cpuW.Add(t.cpu)
	}
}

// ChargeAll charges every module words of off-chip communication and work
// units of PIM work in O(1): a broadcast to all P modules, or a computation
// spread evenly over them. It meters exactly what a loop of Transfer(m,
// words) and ModuleWork(m, work) over every module would. Safe for
// concurrent use.
func (r *Round) ChargeAll(words, work int64) {
	r.buf.allComm.Add(words)
	r.buf.allWork.Add(work)
}

// ModuleCtx is the execution context handed to a module program for one
// round. It meters local work for that module.
type ModuleCtx struct {
	r   *Round
	mod int
}

// ID returns the module's index in [0, P).
func (c *ModuleCtx) ID() int { return c.mod }

// Round returns the enclosing round, for cross-module metering (e.g. a
// query hopping off this module mid-walk).
func (c *ModuleCtx) Round() *Round { return c.r }

// Work logs n units of local PIM-core computation.
func (c *ModuleCtx) Work(n int64) { c.r.modWork[c.mod].Add(n) }

// Transfer logs words moved between this module and the CPU (e.g. the module
// writing results into a staging buffer the CPU reads).
func (c *ModuleCtx) Transfer(words int64) { c.r.Transfer(c.mod, words) }

// ModuleFault is a panic recovered from a module program. OnModules
// re-raises it, as a panic value, on the goroutine driving the round once
// every module program of the run has returned, so a buggy program never
// kills the process from a worker goroutine and callers (the serving
// layer's batch executor) can recover it.
type ModuleFault struct {
	// Module is the id of the module whose program panicked.
	Module int
	// Reason is the recovered panic value.
	Reason any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

func (f *ModuleFault) Error() string {
	return fmt.Sprintf("pim: module %d panicked: %v", f.Module, f.Reason)
}

// ContainedFaults counts the module-program panics the machine contained
// and re-raised since construction.
func (m *Machine) ContainedFaults() int64 { return m.containedFaults.Load() }

// OnModules runs fn on every module and waits for all of them. The
// programs run concurrently on min(GOMAXPROCS, P) worker goroutines, each
// claiming the next unstarted module until none is left. fn must touch only
// module-local state for its own module id plus read-only shared inputs,
// and must not wait on another module's program.
//
// A panicking program never kills the process: its worker records it as
// that module's *ModuleFault and goes on with the next module, and once
// every program has returned OnModules re-raises the fault of the lowest
// module that panicked on the calling goroutine.
func (r *Round) OnModules(fn func(ctx *ModuleCtx)) {
	run := r.startRun(fn)
	workers := min(runtime.GOMAXPROCS(0), len(run.slots))
	run.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go run.loop()
	}
	run.wg.Wait()

	var fault *ModuleFault
	for i := range run.slots {
		if fault = run.slots[i].fault; fault != nil {
			break
		}
	}
	run.fn = nil
	if run == &r.buf.run {
		r.runBusy.Store(false)
	}
	if fault != nil {
		r.m.containedFaults.Add(1)
		panic(fault)
	}
}

// moduleSlot is one module's program in an OnModules run.
type moduleSlot struct {
	ctx   ModuleCtx
	fault *ModuleFault
}

// moduleRun is one OnModules call: the slots its workers claim in order
// through next. loop is the run's work method as one func value, made once,
// so starting a worker allocates no closure.
type moduleRun struct {
	fn    func(ctx *ModuleCtx)
	slots []moduleSlot
	next  atomic.Int64
	wg    sync.WaitGroup
	loop  func()
}

// startRun readies a module run over every module: the round buffer's own
// run, or a fresh one when another OnModules of this round holds it.
func (r *Round) startRun(fn func(ctx *ModuleCtx)) *moduleRun {
	run := &r.buf.run
	if !r.runBusy.CompareAndSwap(false, true) {
		run = &moduleRun{}
		run.loop = run.work
	}
	p := r.m.p
	if cap(run.slots) < p {
		run.slots = make([]moduleSlot, p)
	}
	run.fn = fn
	run.slots = run.slots[:p]
	run.next.Store(0)
	for i := range run.slots {
		run.slots[i] = moduleSlot{ctx: ModuleCtx{r: r, mod: i}}
	}
	return run
}

// work is one worker: it runs the next unclaimed module's program until
// every slot is claimed.
func (run *moduleRun) work() {
	defer run.wg.Done()
	for {
		i := run.next.Add(1) - 1
		if i >= int64(len(run.slots)) {
			return
		}
		run.runSlot(&run.slots[i])
	}
}

// runSlot runs one module's program under its own recover, so a panic
// becomes that module's *ModuleFault and the worker goes on to the next.
func (run *moduleRun) runSlot(s *moduleSlot) {
	defer func() {
		if p := recover(); p != nil {
			s.fault = &ModuleFault{Module: s.ctx.mod, Reason: p, Stack: debug.Stack()}
		}
	}()
	run.fn(&s.ctx)
}

// Finish closes the round: the machine totals gain everything the round
// metered, PIM time gains the max per-module work of the round,
// communication time gains the max per-module words, and the round counter
// advances. A logical round that moves more data than the CPU cache holds
// costs extra bulk-synchronous rounds to flush the buffered messages — the
// Ω(c/M + s) round law of the model (§7 of the paper). Finish gives the
// round's scratch back to the machine for the next round. It is
// idempotent.
func (r *Round) Finish() {
	if r.finished {
		return
	}
	r.finished = true
	maxW, maxC, totalC := r.fold()
	r.m.pimTime.Add(maxW)
	r.m.commT.Add(maxC)
	extra := int64(0)
	if r.m.cacheM > 0 {
		extra = totalC / int64(r.m.cacheM)
	}
	r.m.rounds.Add(1 + extra)
	if r.obs != nil {
		r.emit(1 + extra)
	}
	r.m.buf.Store(r.buf)
}

// fold adds the round's additive meters — work, communication, CPU and the
// per-module loads — to the machine totals, and returns the round's
// per-module maxima and its communication total. It runs once per round:
// in Finish, or in RunRound when the round ends by panic.
func (r *Round) fold() (maxW, maxC, totalC int64) {
	m := r.m
	var totalW int64
	allW, allC := r.buf.allWork.Load(), r.buf.allComm.Load()
	for i := 0; i < m.p; i++ {
		w := r.modWork[i].Load() + allW
		c := r.modComm[i].Load() + allC
		if w != 0 {
			m.moduleWork[i].Add(w)
			totalW += w
			maxW = max(maxW, w)
		}
		if c != 0 {
			m.moduleComm[i].Add(c)
			totalC += c
			maxC = max(maxC, c)
		}
	}
	m.pimWork.Add(totalW)
	m.comm.Add(totalC)
	m.cpuWork.Add(r.cpuW.Load())
	m.cpuSpan.Add(r.cpuS.Load())
	return maxW, maxC, totalC
}

// emit builds the round's RoundRecord and delivers it to the observer. Only
// called on observed rounds, after the meters are folded into the machine.
func (r *Round) emit(rounds int64) {
	p := r.m.p
	allW, allC := r.buf.allWork.Load(), r.buf.allComm.Load()
	rec := RoundRecord{
		Label:         r.label,
		Start:         r.start,
		Wall:          time.Since(r.start),
		CPUWork:       r.cpuW.Load(),
		CPUSpan:       r.cpuS.Load(),
		ModWork:       make([]int64, p),
		ModComm:       make([]int64, p),
		StragglerWork: -1,
		StragglerComm: -1,
		Rounds:        rounds,
	}
	for i := 0; i < p; i++ {
		w := r.modWork[i].Load() + allW
		c := r.modComm[i].Load() + allC
		rec.ModWork[i] = w
		rec.ModComm[i] = c
		rec.TotalWork += w
		rec.TotalComm += c
		if w > rec.MaxWork {
			rec.MaxWork, rec.StragglerWork = w, i
		}
		if c > rec.MaxComm {
			rec.MaxComm, rec.StragglerComm = c, i
		}
	}
	if prefix := r.m.labelPrefix(); prefix != "" {
		if rec.Label == "" {
			rec.Label = prefix
		} else {
			rec.Label = prefix + "/" + rec.Label
		}
	}
	r.obs.ObserveRound(rec)
}

// RunRound is a convenience wrapper: begin a round, hand it to fn, finish.
// A round that fn ends by panicking — with a contained *ModuleFault, say —
// still adds what it metered to the machine's work, communication, CPU and
// per-module totals, and gives its scratch back as Finish does, before the
// panic goes on. It counts no round, adds no PIM or communication time and
// emits no record.
func (m *Machine) RunRound(fn func(r *Round)) {
	r := m.BeginRound()
	defer func() {
		if !r.finished {
			r.finished = true
			r.fold()
			m.buf.Store(r.buf)
		}
	}()
	fn(r)
	r.Finish()
}

// CPUPhase accounts a CPU-only phase (no module involvement) with the given
// work and span, without consuming a round.
func (m *Machine) CPUPhase(work, span int64) {
	m.cpuWork.Add(work)
	m.cpuSpan.Add(span)
}

// Hash maps a 64-bit key to a module id using a fixed avalanche mixer
// (splitmix64 finalizer). It is the "random module placement" primitive used
// for balls-into-bins load balance throughout the repository.
func (m *Machine) Hash(key uint64) int {
	return int(Mix64(key) % uint64(m.p))
}

// Mix64 is the splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MaxLoadRatio summarizes a per-module load vector as max/mean; it returns 0
// for an all-zero vector. A PIM-balanced execution keeps this ratio O(1).
func MaxLoadRatio(loads []int64) float64 {
	var sum, max int64
	for _, v := range loads {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(loads))
	return float64(max) / mean
}
