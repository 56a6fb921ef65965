package pim

import (
	"errors"
	"testing"
)

// recoverFault runs fn and returns the typed fault panic it raises, if any.
func recoverFault(t *testing.T, fn func()) (err error) {
	t.Helper()
	defer func() {
		switch p := recover().(type) {
		case nil:
		case *ModuleFault:
			err = p
		default:
			t.Fatalf("unexpected panic value %T: %v", p, p)
		}
	}()
	fn()
	return nil
}

func TestModulePanicContained(t *testing.T) {
	m := NewMachine(4, 1024)
	err := recoverFault(t, func() {
		m.RunRound(func(r *Round) {
			r.OnModules(func(ctx *ModuleCtx) {
				ctx.Work(1)
				if ctx.ID() == 2 {
					panic("module program bug")
				}
			})
		})
	})
	var mf *ModuleFault
	if !errors.As(err, &mf) {
		t.Fatalf("expected *ModuleFault, got %v", err)
	}
	if mf.Module != 2 {
		t.Fatalf("wrong fault: %+v", mf)
	}
	if mf.Reason != "module program bug" || len(mf.Stack) == 0 {
		t.Fatalf("fault missing reason/stack: %+v", mf)
	}
	if m.ContainedFaults() != 1 {
		t.Fatalf("ContainedFaults = %d, want 1", m.ContainedFaults())
	}
	// The machine stays usable after containment.
	m.RunRound(func(r *Round) {
		r.OnModules(func(ctx *ModuleCtx) { ctx.Work(1) })
	})
	if got := m.Stats().PIMWork; got != 8 {
		t.Fatalf("PIMWork = %d, want 8 (4 before the fault, 4 after)", got)
	}
}
