// Fault model for the PIM machine.
//
// The paper's model assumes P modules that never fail and BSP rounds that
// always complete. A production PIM deployment does not get that luxury:
// modules crash mid-round, rounds stall on slow modules, and off-chip sends
// fail transiently (the UPMEM methodology literature calls out module
// failure and load imbalance as first-class concerns). This file extends
// the simulator with exactly those faults, under two rules:
//
//  1. Determinism. Faults are injected by an Injector keyed on the round
//     sequence number, the module id, and the retry attempt — never on wall
//     time — so a seeded fault plan produces an identical fault schedule,
//     identical metering, and identical results on every run.
//  2. Containment. A faulting module program must never kill the process.
//     A panic on a round's worker goroutine is unrecoverable in plain Go
//     (recover only works on the panicking goroutine); the machine
//     therefore wraps every module program and re-raises the first unresolved fault as a
//     typed panic *on the goroutine driving the round*, where callers (the
//     fault.Supervisor, the serving layer) can recover it.
//
// Recovery composes through RecoveryHandler: when an injected crash or
// stall is contained, the machine hands the fault to the registered handler
// on the worker executing the faulted module. The handler (fault.Supervisor)
// rebuilds the module's shard from host-side authoritative state — metered
// through the normal pim counters, in rounds of its own — and returns true
// to retry the failed module program in place. The crashed attempt metered
// nothing (the program never started), so the retried round's accounting
// stays deterministic.
package pim

import (
	"fmt"
	"time"
)

// FaultKind classifies a contained module fault.
type FaultKind int

const (
	// FaultCrash is an injected module crash: the module's program did not
	// run and its (simulated) memory-resident shard is lost.
	FaultCrash FaultKind = iota
	// FaultStall is an injected stall that met or exceeded the machine's
	// round deadline; the module's program did not run, but no state was
	// lost (retry needs no rebuild).
	FaultStall
	// FaultPanic is a real panic recovered from a module program (a bug,
	// not an injection). It is never auto-retried: the program may have
	// had partial side effects.
	FaultPanic
	// FaultSend is a transient send failure that persisted past the
	// machine's retry cap.
	FaultSend
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultStall:
		return "stall"
	case FaultPanic:
		return "panic"
	case FaultSend:
		return "send"
	}
	return "unknown"
}

// ModuleFault is the typed, contained form of a module failure. It is
// raised as a panic value on the goroutine driving the round (never left to
// kill a worker goroutine) when no recovery handler resolves it.
type ModuleFault struct {
	// Kind classifies the fault.
	Kind FaultKind
	// Module is the faulting module id.
	Module int
	// Round is the machine round sequence number (Machine.RoundSeq order)
	// the fault occurred in.
	Round int64
	// Attempt is the retry attempt the fault occurred on (0 = first try).
	Attempt int
	// Injected is true for injector-driven faults, false for real panics.
	Injected bool
	// Reason is the recovered panic value for FaultPanic faults.
	Reason any
	// Stack is the faulting goroutine's stack for FaultPanic faults.
	Stack []byte
}

func (f *ModuleFault) Error() string {
	if f.Kind == FaultPanic {
		return fmt.Sprintf("pim: module %d panicked in round %d: %v", f.Module, f.Round, f.Reason)
	}
	return fmt.Sprintf("pim: module %d %s fault in round %d (attempt %d)", f.Module, f.Kind, f.Round, f.Attempt)
}

// RoundTimeout is raised (as a panic on the round-driving goroutine) when a
// round's module programs do not all finish within the machine's round
// deadline. No program of the round starts after the deadline fires; the
// stalled ones are abandoned: they may still complete in the background
// and their metering lands on the machine totals, so a timed-out round's
// accounting is best-effort (the recovery path re-meters what matters).
// Prefer injected stalls, which are resolved deterministically before the
// program runs.
type RoundTimeout struct {
	// Round is the machine round sequence number.
	Round int64
	// Deadline is the configured per-round deadline that expired.
	Deadline time.Duration
	// Stragglers lists the module ids whose programs had started and not
	// returned at the deadline — or, when none was running, the ones that
	// never started.
	Stragglers []int
}

func (e *RoundTimeout) Error() string {
	return fmt.Sprintf("pim: round %d exceeded deadline %v (stragglers %v)", e.Round, e.Deadline, e.Stragglers)
}

// Action is an Injector's decision for one (round, module, attempt) site.
// The zero Action is "run normally".
type Action struct {
	// Crash simulates a module crash: the program does not run and the
	// module's shard is considered lost.
	Crash bool
	// Stall delays the module's program by this much. A stall that meets or
	// exceeds the machine's round deadline is escalated to a FaultStall
	// without running the program (deterministically — no real deadline
	// race); a shorter stall sleeps, showing up as wall-clock straggling in
	// traces but metering nothing. The stalled worker first starts a spare
	// one, so the round's other modules run meanwhile and the stalls of one
	// round overlap instead of adding up toward its deadline.
	Stall time.Duration
}

// Injector decides fault injection for a machine. Implementations must be
// pure functions of their own configuration and the (round, module,
// attempt) coordinates — in particular independent of wall time — so that
// runs are reproducible. Methods are called concurrently from the round's
// worker goroutines.
type Injector interface {
	// ModuleAction is consulted before running module mod's program in the
	// given round; attempt counts recovery retries of that program.
	ModuleAction(round int64, mod, attempt int) Action
	// SendOK reports whether the attempt-th try of a Transfer touching mod
	// in the given round succeeds. Each failed try meters the transferred
	// words again (the failed send occupied the off-chip channel) before
	// the machine retries.
	SendOK(round int64, mod, attempt int) bool
}

// RecoveryHandler resolves contained module faults. HandleModuleFault runs
// on the worker executing the faulted module, mid-round, while the other
// workers go on with sibling module programs; it may run rounds of its own on the machine (fault
// injection is suppressed for those). Return true to retry the faulted
// module's program, false to escalate the fault as a typed panic on the
// round's driving goroutine. Only injected faults (FaultCrash, FaultStall)
// are offered for recovery; real panics escalate directly.
type RecoveryHandler interface {
	HandleModuleFault(f *ModuleFault) bool
}

// maxSendAttempts bounds in-round retries of a transiently failing send
// before the machine escalates to a FaultSend module fault.
const maxSendAttempts = 16

// injHolder / recHolder box interfaces for atomic.Pointer storage.
type injHolder struct{ inj Injector }
type recHolder struct{ h RecoveryHandler }

// SetInjector installs inj as the machine's fault injector (nil disables
// injection). Rounds begun while a recovery handler is running are never
// injected, so recovery cannot fault recursively.
func (m *Machine) SetInjector(inj Injector) {
	if inj == nil {
		m.inj.Store(nil)
		return
	}
	m.inj.Store(&injHolder{inj: inj})
}

// Injector returns the machine's current fault injector, or nil.
func (m *Machine) Injector() Injector {
	if h := m.inj.Load(); h != nil {
		return h.inj
	}
	return nil
}

// SetRecoveryHandler installs h as the machine's recovery handler (nil
// disables inline recovery: contained faults escalate as typed panics).
func (m *Machine) SetRecoveryHandler(h RecoveryHandler) {
	if h == nil {
		m.rec.Store(nil)
		return
	}
	m.rec.Store(&recHolder{h: h})
}

// SetRoundDeadline bounds how long one round's module programs may run
// before the round is abandoned with a RoundTimeout (0, the default,
// disables the deadline). Injected stalls meeting the deadline are
// escalated deterministically without sleeping.
func (m *Machine) SetRoundDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.deadline.Store(int64(d))
}

// RoundDeadline returns the configured per-round deadline (0 = none).
func (m *Machine) RoundDeadline() time.Duration {
	return time.Duration(m.deadline.Load())
}

// RoundSeq returns the sequence number of the most recently begun round.
// Fault plans target rounds in this numbering.
func (m *Machine) RoundSeq() int64 { return m.seq.Load() }

// ContainedFaults counts module faults the machine contained (resolved by
// the recovery handler or escalated as typed panics) since construction.
func (m *Machine) ContainedFaults() int64 { return m.containedFaults.Load() }

// SendRetries counts transient send failures re-tried by Transfer since
// construction. Each retry metered its words again.
func (m *Machine) SendRetries() int64 { return m.sendRetries.Load() }

// handleFault offers a contained injected fault to the recovery handler,
// suppressing injection for any rounds the handler runs. It reports whether
// the faulted module program should be retried.
func (m *Machine) handleFault(f *ModuleFault) bool {
	h := m.rec.Load()
	if h == nil {
		return false
	}
	m.recDepth.Add(1)
	defer m.recDepth.Add(-1)
	return h.h.HandleModuleFault(f)
}
