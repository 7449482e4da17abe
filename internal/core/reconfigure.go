package core

import (
	"fmt"

	"repro/internal/cthread"
)

// Errors returned by the reconfiguration operations.
var (
	// ErrNotAuthorized is returned by Configure when the calling thread
	// neither possesses the attribute nor owns the lock.
	ErrNotAuthorized = fmt.Errorf("core: thread neither possesses the attribute nor owns the lock")
	// ErrAlreadyPossessed is returned by Possess when another thread
	// holds the attribute.
	ErrAlreadyPossessed = fmt.Errorf("core: attribute possessed by another thread")
)

// Possess acquires exclusive ownership of attribute a on behalf of t, as
// an external agent must before reconfiguring a lock it does not own:
//
//	passive-lock.possess(a-attribute)
//	passive-lock.configure(a-attribute, new-config)
//
// Its cost is "comparable to a primitive test-and-set operation"
// (Table 6: 30.75us local). Possession is advisory with respect to the
// lock owner: the owner's implicit right to reconfigure (Advise) is not
// revoked by possession, matching the paper's implicit-ownership rule.
func (l *Lock) Possess(t *cthread.Thread, a Attr) error {
	if a < 0 || a >= numAttrs {
		return fmt.Errorf("core: unknown attribute %d", int(a))
	}
	t.Compute(l.m.Cfg.CallOverhead + l.costs.PossessOp)
	w := l.attrOwn[a]
	if !w.AtomicCAS(t, 0, t.ID()) {
		if w.Peek() == t.ID() {
			return nil // already ours; idempotent
		}
		// Possession recovery: an agent that died while possessing the
		// attribute must not wedge reconfiguration forever. A dead
		// possessor's ownership is stolen (one extra write).
		if prev := l.attrOwnT[a]; prev != nil && prev.State() == cthread.Done {
			w.Write(t, t.ID())
			l.attrOwnT[a] = t
			l.mon.possessions++
			l.mon.possessRecoveries++
			l.notef(EventOwnerDeath, t.Now(), t.Name(), "stole %s possession from dead agent %q", a, prev.Name())
			return nil
		}
		return ErrAlreadyPossessed
	}
	l.attrOwnT[a] = t
	l.mon.possessions++
	return nil
}

// Dispossess releases t's ownership of attribute a (one memory write). It
// is a no-op if t does not own the attribute.
func (l *Lock) Dispossess(t *cthread.Thread, a Attr) {
	if a < 0 || a >= numAttrs {
		return
	}
	if l.attrOwn[a].Peek() != t.ID() {
		return
	}
	l.attrOwn[a].Write(t, 0)
	l.attrOwnT[a] = nil
}

// authorized reports whether t may reconfigure attribute a: t possesses
// the attribute explicitly, or owns the lock (implicit ownership: "
// ownership of the object attribute spin-time or block-time is acquired
// implicitly by a thread when it acquires the lock"), or the lock is
// entirely quiescent (free, unowned attribute) — the static-configuration
// case at program start.
func (l *Lock) authorized(t *cthread.Thread, a Attr) bool {
	owner := l.attrOwn[a].Peek()
	if owner == t.ID() {
		return true
	}
	if l.ownerW.Peek() == t.ID() {
		return true
	}
	return owner == 0 && l.ownerW.Peek() == 0
}

// ConfigureWaiting performs Ψ on the waiting policy:
//
//	⟨mutex, X⟩ : Ψ_spin : ⟨spin, X⟩ [1R1W]
//
// The waiting-policy attribute is permanently mutable, so the change takes
// effect immediately — threads already waiting adopt the new policy at
// their next waiting round. Cost: one memory read plus one memory write
// (Table 6: 9.87us local).
func (l *Lock) ConfigureWaiting(t *cthread.Thread, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !l.authorized(t, AttrWaitingPolicy) {
		return ErrNotAuthorized
	}
	t.Compute(l.costs.ConfigureWaitingOp)
	_ = l.paramsW.Read(t)        // 1R
	l.paramsW.Write(t, p.pack()) // 1W
	l.params = p
	l.mon.reconfigWaiting++
	l.note(EventReconfig, t.Now(), t.Name(), "waiting policy -> "+p.Kind().String())
	return nil
}

// Advise is the advisory/speculative-lock operation: the current owner
// (who is "the best source of information for the length of lock
// ownership") changes the waiting policy for the threads requesting the
// lock. It is ConfigureWaiting under the owner's implicit attribute
// ownership.
func (l *Lock) Advise(t *cthread.Thread, p Params) error {
	return l.ConfigureWaiting(t, p)
}

// ConfigureScheduler performs Ψ on the scheduling component:
//
//	⟨X, fifo⟩ : Ψ_priority : ⟨X, priority⟩ [1R5W]
//
// The scheduler attribute is immutable while threads are waiting, so the
// change is deferred — "the second solution does not change the
// configuration of the lock until all the pre-registered threads are
// served" — implemented with a pending flag that the release module clears
// once the registration queue drains (the configuration delay).
//
// Cost: one read, three submodule writes, one flag-set write, and one
// flag-reset write. With no waiters the new scheduler applies immediately
// and all five writes are charged here (Table 6: 12.51us local);
// otherwise the reset write is charged to the release that completes the
// change.
func (l *Lock) ConfigureScheduler(t *cthread.Thread, k SchedulerKind) error {
	if !k.valid() {
		return fmt.Errorf("core: invalid scheduler %d", int(k))
	}
	if !l.authorized(t, AttrScheduler) {
		return ErrNotAuthorized
	}
	t.Compute(l.costs.ConfigureSchedulerOp)
	_ = l.schedFlag.Read(t) // 1R: current configuration/flag
	for _, w := range l.schedSub {
		w.Write(t, int64(k)) // 3W: registration, acquisition, release submodules
	}
	l.schedFlag.Write(t, 1) // 1W: set the configuration-delay flag
	l.mon.reconfigScheduler++
	l.note(EventReconfig, t.Now(), t.Name(), "scheduler -> "+k.String())
	if len(l.queue) == 0 {
		// No pre-registered threads: the old scheduler is discarded now.
		l.sched = k
		l.havePending = false
		l.schedFlag.Write(t, 0) // 1W: reset the flag
		return nil
	}
	l.pendingSched = k
	l.havePending = true
	return nil
}

// PendingScheduler reports a deferred scheduler change, if any.
func (l *Lock) PendingScheduler() (SchedulerKind, bool) {
	return l.pendingSched, l.havePending
}

// SetThreshold changes the priority threshold used by the
// PriorityThreshold scheduler (one memory write). The paper's client-server
// experiment raises it dynamically: "whenever the server thread is flooded
// with many requests, the lock priority is dynamically altered to
// temporarily raise the threshold priority above client priority thereby
// making clients ineligible for the locks".
func (l *Lock) SetThreshold(t *cthread.Thread, v int64) error {
	if !l.authorized(t, AttrWaitingPolicy) {
		return ErrNotAuthorized
	}
	t.Compute(l.costs.QueueOp)
	l.threshW.Write(t, v)
	l.threshold = v
	return nil
}

// SetThreadPolicy registers a per-thread waiting-policy override — the
// Γ_Acq mapping of thread id to waiting method ("maps requests to methods
// for spinning, blocking, backoff spinning, conditional locking, and
// advisory locking"). Pass the zero Params to clear.
//
// A thread may always set its OWN override (requests carry their
// attributes); overriding another thread requires the usual waiting-policy
// authorization.
func (l *Lock) SetThreadPolicy(t *cthread.Thread, id int64, p Params) error {
	if id != t.ID() && !l.authorized(t, AttrWaitingPolicy) {
		return ErrNotAuthorized
	}
	t.Compute(l.costs.QueueOp)
	l.regW.Write(t, id)
	if p == (Params{}) {
		delete(l.perThread, id)
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	l.perThread[id] = p
	return nil
}

// ReconfigureCost returns the formal-model cost t = n1·R n2·W of the given
// reconfiguration operation, for documentation and tests of the Section
// 4.1 cost model.
func ReconfigureCost(a Attr) (reads, writes int) {
	switch a {
	case AttrWaitingPolicy:
		return 1, 1
	case AttrScheduler:
		return 1, 5
	}
	return 0, 0
}

// EffectivePolicyFor reports the waiting policy a given thread id would
// receive (override or lock-wide), without charging costs. Harness use.
func (l *Lock) EffectivePolicyFor(id int64) Params {
	if p, ok := l.perThread[id]; ok {
		return p
	}
	return l.params
}
