package core

import (
	"fmt"

	"repro/internal/cthread"
	"repro/internal/machine"
)

// Migrate relocates the lock object's words to another memory module —
// the architecture-specific configuration state the paper mentions but
// does not evaluate ("configuration state not shown in the Table includes
// architecture-specific information like lock location"). Moving the lock
// next to its dominant requester converts that thread's remote references
// into local ones.
//
// Migration requires the guard, copies every state word to freshly
// allocated words on the target module (charging a read and a write per
// word to the migrating thread), and is authorized like any other
// configuration change: the caller must own the lock, possess the
// waiting-policy attribute, or find the lock quiescent.
func (l *Lock) Migrate(t *cthread.Thread, mod int) error {
	if mod < 0 || mod >= l.m.Procs() {
		return fmt.Errorf("core: Migrate to module %d of %d", mod, l.m.Procs())
	}
	if !l.authorized(t, AttrWaitingPolicy) {
		return ErrNotAuthorized
	}
	l.lockGuard(t)
	move := func(w **machine.Word) {
		nw := l.m.NewWord(mod)
		v := (*w).Read(t) // read the old word (charged)
		nw.Write(t, v)    // write the new one (charged)
		*w = nw
	}
	// The guard itself moves last: we still hold the OLD guard word while
	// copying, then release the old guard after installing the new one as
	// free. Threads spinning on the old guard word re-read it, observe it
	// released, and re-run their acquisition against the new structure via
	// the Go-level pointers.
	move(&l.ownerW)
	move(&l.regW)
	move(&l.hintW)
	move(&l.paramsW)
	move(&l.threshW)
	move(&l.schedFlag)
	for i := range l.schedSub {
		move(&l.schedSub[i])
	}
	for i := range l.attrOwn {
		move(&l.attrOwn[i])
	}
	oldGuard := l.guard
	ng := l.m.NewWord(mod)
	ng.Poke(1) // new guard born held by us
	l.guard = ng
	l.module = mod
	l.notef(EventReconfig, t.Now(), t.Name(), "migrated to module %d", mod)
	l.unlockGuard(t)     // release the new guard
	oldGuard.Write(t, 0) // and the old one, freeing any spinners on it
	return nil
}

// Module reports the memory module currently holding the lock's words.
func (l *Lock) Module() int { return l.module }
