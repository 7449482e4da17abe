package core

import (
	"repro/internal/cthread"
	"repro/internal/sim"
)

// FaultInjector is consulted at the lock's fault-injection points. The
// injection points bracket exactly the operations the paper's model makes
// configurable: the grant (a holder may stall after acquiring), the
// release (the unlock path may be delayed before the release module runs)
// and the Γ_Reg registration queue (a waiter may be preempted right after
// registering). Implementations decide deterministically from a seeded
// schedule; internal/fault provides one.
type FaultInjector interface {
	// HolderStall is drawn once per successful acquisition. A firing
	// draw stalls the new holder for the returned duration.
	HolderStall() (sim.Duration, bool)
	// ReleaseDelay is drawn once per unlock. A firing draw delays the
	// unlocker before the release module runs.
	ReleaseDelay() (sim.Duration, bool)
	// WaiterPreempt is drawn once per contended registration. A firing
	// draw suspends the freshly registered waiter for the duration.
	WaiterPreempt() (sim.Duration, bool)
}

// SetFaultInjector attaches a fault injector to the lock's injection
// points. Pass nil to disable. Harness use; set it before the simulation
// runs.
func (l *Lock) SetFaultInjector(fi FaultInjector) { l.injector = fi }

// injectHolderStall stalls the fresh holder if the injector says so. The
// guard must NOT be held: the stall is ordinary (simulated) compute time
// spent inside the critical section.
func (l *Lock) injectHolderStall(t *cthread.Thread) {
	if l.injector == nil {
		return
	}
	if d, ok := l.injector.HolderStall(); ok && d > 0 {
		l.notef(EventFault, t.Now(), t.Name(), "holder stall %v", d)
		t.Compute(d)
	}
}

// injectReleaseDelay delays the unlocker before the release module runs.
func (l *Lock) injectReleaseDelay(t *cthread.Thread) {
	if l.injector == nil {
		return
	}
	if d, ok := l.injector.ReleaseDelay(); ok && d > 0 {
		l.notef(EventFault, t.Now(), t.Name(), "delayed release %v", d)
		t.Compute(d)
	}
}

// injectWaiterPreempt suspends a freshly registered waiter, modelling
// preemption in the window between registration and waiting — exactly
// where abandoning a queued waiter becomes hard (the HMCS-timeout
// problem). The guard must NOT be held.
func (l *Lock) injectWaiterPreempt(t *cthread.Thread) {
	if l.injector == nil {
		return
	}
	if d, ok := l.injector.WaiterPreempt(); ok && d > 0 {
		l.notef(EventFault, t.Now(), t.Name(), "waiter preempted %v", d)
		t.Sleep(d)
	}
}

// WatchdogEvent describes one watchdog trip.
type WatchdogEvent struct {
	// At is the virtual time of the trip.
	At sim.Time
	// Owner / OwnerName identify the stalled holder.
	Owner     int64
	OwnerName string
	// Held is how long the holder had held the lock when the watchdog
	// fired.
	Held sim.Duration
	// Died reports that the holder's thread was found dead (exited
	// without releasing); the lock has been force-released.
	Died bool
}

// SetHoldDeadline arms a per-lock watchdog: any holder that keeps the
// lock longer than d trips it, incrementing the WatchdogTrips counter,
// emitting an EventWatchdog, and invoking the watchdog callback. A tripped
// watchdog also checks the holder for death (thread exited while owning
// the lock) and force-releases on its behalf, so a crashed holder
// surfaces as an owner death to the monitor — and via ConsumeOwnerDied to
// the next acquirer — instead of deadlocking the lock. Zero disables the
// watchdog.
func (l *Lock) SetHoldDeadline(d sim.Duration) {
	if d < 0 {
		panic("core: negative hold deadline")
	}
	l.holdDeadline = d
}

// HoldDeadline returns the configured watchdog deadline (0 = disabled).
func (l *Lock) HoldDeadline() sim.Duration { return l.holdDeadline }

// SetWatchdogFunc registers a callback invoked (in engine-callback
// context: no simulated time may be charged, no lock methods called) on
// every watchdog trip. Pass nil to detach. Adaptation components use it
// to degrade to a safe policy when holders misbehave.
func (l *Lock) SetWatchdogFunc(fn func(WatchdogEvent)) { l.onWatchdog = fn }

// setOwner records an ownership change at the current instant: owner
// bookkeeping, the new tenure's start, watchdog re-arming, and the
// EventOwner event. t is nil when the lock becomes free.
func (l *Lock) setOwner(t *cthread.Thread) {
	now := l.m.Eng.Now()
	ev := Event{Kind: EventOwner, At: now}
	if l.ownerT != nil {
		ev.Other, ev.Held = l.ownerT.Name(), sim.Duration(now-l.mon.holdStart)
	}
	l.ownerT = t
	l.holdSeq++
	if t != nil {
		ev.Actor = t.Name()
		l.mon.holdStart = now
		l.armWatchdog()
	}
	l.sink.LockEvent(ev)
}

// armWatchdog schedules the hold-deadline check for the current tenure.
func (l *Lock) armWatchdog() {
	if l.holdDeadline <= 0 {
		return
	}
	seq := l.holdSeq
	l.m.Eng.Schedule(l.holdDeadline, func() { l.watchdogFire(seq) })
}

// watchdogFire runs in engine-callback context when a hold deadline
// elapses. It is a no-op if the tenure it was armed for has ended.
func (l *Lock) watchdogFire(seq uint64) {
	if seq != l.holdSeq || l.ownerT == nil {
		return
	}
	if l.ownerW.Peek() == releasePending {
		// Active lock: the owner posted its release and the server has
		// not yet processed it — latency, not a stall.
		return
	}
	if l.guard.Peek() != 0 {
		// A thread is mid-operation on the lock structure; re-check
		// shortly rather than mutating state under it.
		l.m.Eng.Schedule(sim.Us(1), func() { l.watchdogFire(seq) })
		return
	}
	now := l.m.Eng.Now()
	l.mon.watchdogTrips++
	ev := WatchdogEvent{
		At:        now,
		Owner:     l.ownerT.ID(),
		OwnerName: l.ownerT.Name(),
		Held:      sim.Duration(now - l.mon.holdStart),
	}
	l.notef(EventWatchdog, now, ev.OwnerName, "held %v > deadline %v", ev.Held, l.holdDeadline)
	if l.ownerT.State() == cthread.Done {
		ev.Died = true
		l.recoverDead(now)
	} else {
		// Still alive: keep watching this tenure — a stalled holder may
		// yet die before releasing (a stall can precede a crash), and a
		// one-shot check would miss it, deadlocking the waiters. Each
		// further deadline period exceeded counts as another trip.
		l.m.Eng.Schedule(l.holdDeadline, func() { l.watchdogFire(seq) })
	}
	if l.onWatchdog != nil {
		l.onWatchdog(ev)
	}
}

// recoverDead force-releases the lock on behalf of a holder that exited
// without unlocking. It runs in engine-callback context, so no simulated
// thread is charged: the recovery models watchdog hardware/privileged
// runtime work. The next grantee can learn about the inconsistent
// critical section through ConsumeOwnerDied (robust-mutex semantics).
func (l *Lock) recoverDead(now sim.Time) {
	dead := l.ownerT
	held := sim.Duration(now - l.mon.holdStart)
	l.mon.ownerDeaths++
	l.mon.holdTotal += held
	l.ownerDiedPending = true
	l.sink.LockEvent(Event{Kind: EventOwnerDeath, At: now, Actor: dead.Name(), Held: held,
		Detail: "owner died holding the lock; force-released"})
	l.purgeExpired(now, nil)
	if l.havePending && len(l.queue) == 0 {
		l.sched = l.pendingSched
		l.havePending = false
		l.schedFlag.Poke(0)
	}
	if len(l.queue) == 0 {
		l.ownerW.Poke(0)
		l.setOwner(nil)
		l.mon.transition(StateUnlocked)
		return
	}
	l.mon.transition(StateIdle)
	l.mon.idleStart = now
	e, rest := pickNext(l.queue, l.sched, 0, l.threshold)
	l.queue = rest
	l.ownerW.Poke(e.t.ID())
	l.mon.grants++
	l.setOwner(e.t)
	l.sink.LockEvent(Event{Kind: EventGrant, At: now, Actor: "watchdog", Other: e.t.Name(), Detail: "recovery, " + l.sched.String()})
	if e.sleeping {
		l.mon.wakeups++
		l.sys.WakeFromCallback(e.t)
	}
}

// ConsumeOwnerDied reports — once — that the calling thread inherited the
// lock from an owner that died holding it (the robust-mutex EOWNERDEAD
// protocol: the new owner should repair shared state before relying on
// it). The caller must currently own the lock; otherwise it returns
// false and the pending flag is preserved for the true owner.
func (l *Lock) ConsumeOwnerDied(t *cthread.Thread) bool {
	if !l.ownerDiedPending || l.ownerW.Peek() != t.ID() {
		return false
	}
	l.ownerDiedPending = false
	return true
}

// OwnerDiedPending reports the undelivered owner-death flag without
// consuming it. Harness use.
func (l *Lock) OwnerDiedPending() bool { return l.ownerDiedPending }

// purgeExpired removes registered waiters whose conditional-acquisition
// deadline has already passed, so the release module never grants the
// lock to an abandoned thread (the HMCS-timeout problem: a timed-out
// waiter must leave the registration queue even if it has not yet run its
// own deregistration). Each removal counts as an abandonment; the
// abandoned thread itself will fail its acquisition when it next checks
// its deadline. byT, when non-nil, is charged the queue manipulation;
// callers from engine-callback context pass nil. The guard must be held
// (or execution must be in callback context with the guard observed
// free).
func (l *Lock) purgeExpired(now sim.Time, byT *cthread.Thread) {
	kept := l.queue[:0]
	for _, e := range l.queue {
		if e.abortAt != 0 && now >= e.abortAt {
			l.mon.abandonments++
			if byT != nil {
				byT.Compute(l.costs.QueueOp)
			}
			l.note(EventAbandon, now, e.t.Name(), "expired waiter removed from registration queue")
			continue
		}
		kept = append(kept, e)
	}
	// Clear the tail so dropped entries do not linger in the backing
	// array (a dangling registration in all but name).
	for i := len(kept); i < len(l.queue); i++ {
		l.queue[i] = nil
	}
	l.queue = kept
}
