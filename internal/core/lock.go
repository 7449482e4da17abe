package core

import (
	"fmt"

	"repro/internal/cthread"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Costs collects the software-overhead constants of the configurable lock,
// calibrated against the paper's Tables 2, 3 and 6 (see DefaultCosts).
type Costs struct {
	// LockOp / UnlockOp: entry overhead of the lock / unlock operations
	// (Υ_l, Υ_u).
	LockOp   sim.Duration
	UnlockOp sim.Duration
	// QueueOp: registration-queue manipulation beyond raw word traffic.
	QueueOp sim.Duration
	// PossessOp: logic of the possess operation beyond its atomic op.
	PossessOp sim.Duration
	// ConfigureWaitingOp / ConfigureSchedulerOp: logic of the two Ψ
	// reconfiguration operations beyond their 1R1W / 1R5W word traffic.
	ConfigureWaitingOp   sim.Duration
	ConfigureSchedulerOp sim.Duration
	// HandoffHintOp: extra cost of accepting a user hint on unlock (the
	// paper: handoff loses to priority "due to the extra overhead
	// required ... to accept user hints").
	HandoffHintOp sim.Duration
	// ActiveUnlockOp: entry overhead of posting a release to an active
	// lock's server thread.
	ActiveUnlockOp sim.Duration
	// ProbeOp: cost of an explicit monitor probe.
	ProbeOp sim.Duration
}

// DefaultCosts returns overheads calibrated so that, under
// machine.DefaultGP1000, the configurable lock's uncontended operations
// match the paper:
//
//	lock op               40.79us (Table 2 — same as a spin lock, because
//	                               the lock spins before deciding to block)
//	unlock op             50.07us (Table 3 — between spin and blocking;
//	                               the extra work checks for blocked threads)
//	possess               30.75us (Table 6 — comparable to test-and-set)
//	configure(waiting)     9.87us (Table 6 — 1R1W)
//	configure(scheduler)  12.51us (Table 6 — 1R5W)
func DefaultCosts() Costs {
	return Costs{
		LockOp:               sim.Us(5.36),
		UnlockOp:             sim.Us(42.57),
		QueueOp:              sim.Us(2.0),
		PossessOp:            sim.Us(0.02),
		ConfigureWaitingOp:   sim.Us(7.57),
		ConfigureSchedulerOp: sim.Us(5.41),
		HandoffHintOp:        sim.Us(3.0),
		ActiveUnlockOp:       sim.Us(3.0),
		ProbeOp:              sim.Us(1.0),
	}
}

// Attr names a configurable attribute of the lock object for possession
// and reconfiguration.
type Attr int

// Configurable attributes.
const (
	// AttrWaitingPolicy is the wait component Φ (Params). Permanently
	// mutable: it may be changed at any time.
	AttrWaitingPolicy Attr = iota
	// AttrScheduler is the scheduling component Γ. Its change is subject
	// to the configuration delay: it takes effect once all pre-registered
	// threads have been served.
	AttrScheduler
	numAttrs
)

func (a Attr) String() string {
	switch a {
	case AttrWaitingPolicy:
		return "waiting-policy"
	case AttrScheduler:
		return "scheduler"
	}
	return fmt.Sprintf("attr(%d)", int(a))
}

// entry is one registered waiter (the registration component Γ_Reg logs
// all threads desiring lock access; "without registration the lock cannot
// apply different waiting policies to individual threads").
type entry struct {
	t        *cthread.Thread
	prio     int64
	deadline sim.Time // absolute deadline for the Deadline scheduler (0 = none)
	abortAt  sim.Time // conditional-acquisition expiry (0 = unconditional)
	regAt    sim.Time
	sleeping bool // true while the waiter is blocked (vs. spinning)
}

// Options configures a new lock.
type Options struct {
	// Module is the memory module holding the lock's words (the paper's
	// local vs. remote lock placement). Defaults to 0.
	Module int
	// Params is the initial waiting policy Φ. Defaults to SpinParams().
	Params Params
	// Scheduler is the initial release policy Γ. Defaults to FCFS.
	Scheduler SchedulerKind
	// Threshold is the initial priority threshold for PriorityThreshold.
	Threshold int64
	// Costs overrides the calibrated cost constants (zero value means
	// DefaultCosts).
	Costs *Costs
}

// Lock is the reconfigurable multiprocessor lock object.
//
// Internal state (immutable interface): the owner, the registration queue.
// Configuration state (mutable attributes): the waiting policy Φ, the
// scheduler Γ, the priority threshold. Reconfiguration happens through
// Possess/Configure (asynchronously, by an external agent) or implicitly by
// the current lock owner (Advise).
type Lock struct {
	sys   *cthread.System
	m     *machine.Machine
	costs Costs

	// Internal state words (charged memory traffic).
	guard  *machine.Word // primitive spin lock protecting the object
	ownerW *machine.Word // current owner thread id, 0 = free
	regW   *machine.Word // registration slot (last registrant id)
	hintW  *machine.Word // handoff hint

	// Configuration state words.
	paramsW   *machine.Word             // packed Params (1R1W reconfiguration)
	threshW   *machine.Word             // priority threshold
	schedSub  [3]*machine.Word          // the three scheduler submodules
	schedFlag *machine.Word             // configuration-delay flag
	attrOwn   [numAttrs]*machine.Word   // attribute ownership words
	attrOwnT  [numAttrs]*cthread.Thread // attribute possessor threads (for death recovery)

	// Go-level mirrors of the configuration state (the words carry the
	// cost; these carry the meaning).
	params    Params
	sched     SchedulerKind
	threshold int64

	pendingSched SchedulerKind
	havePending  bool

	perThread map[int64]Params // per-thread waiting-policy overrides

	queue []*entry

	mon Monitor

	server *activeServer // non-nil for active locks

	sink EventSink // NopSink unless SetEventSink was called (event.go)

	// Robustness machinery (see robust.go).
	injector         FaultInjector       // nil unless SetFaultInjector was called
	holdDeadline     sim.Duration        // watchdog deadline (0 = disabled)
	onWatchdog       func(WatchdogEvent) // nil unless SetWatchdogFunc was called
	ownerT           *cthread.Thread     // current owner thread (nil = free)
	holdSeq          uint64              // bumped at every ownership change
	ownerDiedPending bool                // undelivered EOWNERDEAD to the next owner

	module int // memory module currently holding the lock's words
}

// New creates a passive reconfigurable lock.
func New(sys *cthread.System, opts Options) *Lock {
	if opts.Params == (Params{}) {
		opts.Params = SpinParams()
	}
	if err := opts.Params.Validate(); err != nil {
		panic(err)
	}
	if !opts.Scheduler.valid() {
		panic(fmt.Sprintf("core: invalid scheduler %d", opts.Scheduler))
	}
	costs := DefaultCosts()
	if opts.Costs != nil {
		costs = *opts.Costs
	}
	m := sys.M
	l := &Lock{
		sys: sys, m: m, costs: costs,
		guard:     m.NewWord(opts.Module),
		ownerW:    m.NewWord(opts.Module),
		regW:      m.NewWord(opts.Module),
		hintW:     m.NewWord(opts.Module),
		paramsW:   m.NewWord(opts.Module),
		threshW:   m.NewWord(opts.Module),
		schedFlag: m.NewWord(opts.Module),
		params:    opts.Params,
		sched:     opts.Scheduler,
		threshold: opts.Threshold,
		perThread: make(map[int64]Params),
		sink:      NopSink,
		module:    opts.Module,
	}
	for i := range l.schedSub {
		l.schedSub[i] = m.NewWord(opts.Module)
	}
	for i := range l.attrOwn {
		l.attrOwn[i] = m.NewWord(opts.Module)
	}
	l.paramsW.Poke(opts.Params.pack())
	l.threshW.Poke(opts.Threshold)
	l.mon.lock = l
	return l
}

// NewActive creates an active lock: a permanent server thread bound to
// processor cpu executes the release module on behalf of unlocking
// threads ("if a lock object has a permanent thread bound to it, we refer
// to it as an active lock").
func NewActive(sys *cthread.System, opts Options, cpu int) *Lock {
	l := New(sys, opts)
	l.startServer(cpu)
	return l
}

// Name identifies the lock in experiment output.
func (l *Lock) Name() string {
	kind := l.params.Kind().String()
	mode := "passive"
	if l.server != nil {
		mode = "active"
	}
	return fmt.Sprintf("configurable[%s,%s,%s]", kind, l.sched, mode)
}

// Params returns the current waiting policy.
func (l *Lock) Params() Params { return l.params }

// Scheduler returns the current (not pending) scheduler.
func (l *Lock) Scheduler() SchedulerKind { return l.sched }

// Threshold returns the current priority threshold.
func (l *Lock) Threshold() int64 { return l.threshold }

// OwnerID returns the current owner's thread id (0 = free; -1 = an active
// lock's release has been posted but not yet processed). Harness use.
func (l *Lock) OwnerID() int64 { return l.ownerW.Peek() }

// Waiters returns the current registration-queue length. Harness use.
func (l *Lock) Waiters() int { return len(l.queue) }

// --- primitive guard ---

func (l *Lock) lockGuard(t *cthread.Thread) {
	for {
		if l.guard.AtomicOr(t, 1) == 0 {
			return
		}
		for l.guard.Read(t) != 0 {
		}
	}
}

func (l *Lock) unlockGuard(t *cthread.Thread) { l.guard.Write(t, 0) }

// --- Υ_l: the lock operation ---

// Lock acquires the lock, waiting per the current configuration. It panics
// if the effective policy is conditional and times out; use Acquire for
// conditional locks.
func (l *Lock) Lock(t *cthread.Thread) {
	if !l.Acquire(t) {
		panic(fmt.Sprintf("core: conditional lock timed out in Lock; thread %q should use Acquire", t.Name()))
	}
}

// Acquire acquires the lock, waiting per the effective waiting policy for
// this thread. It returns false only if the policy is conditional
// (Timeout > 0) and the timeout expired.
func (l *Lock) Acquire(t *cthread.Thread) bool { return l.acquire(t, 0) }

// LockDeadline acquires the lock carrying an absolute deadline, which the
// Deadline (EDF) release scheduler uses to order grants. The deadline does
// not abort the wait (combine with a conditional waiting policy for that).
func (l *Lock) LockDeadline(t *cthread.Thread, deadline sim.Time) {
	if !l.acquire(t, deadline) {
		panic(fmt.Sprintf("core: conditional lock timed out in LockDeadline; thread %q should use Acquire", t.Name()))
	}
}

func (l *Lock) acquire(t *cthread.Thread, deadline sim.Time) bool {
	t.Compute(l.m.Cfg.CallOverhead + l.costs.LockOp)
	// Γ_Reg: registration — "the cost of one write operation on primary
	// memory" (the thread's identity).
	l.regW.Write(t, t.ID())
	l.note(EventRequest, t.Now(), t.Name(), "")
	l.lockGuard(t)
	if l.ownerW.Read(t) == 0 {
		l.ownerW.Write(t, t.ID())
		l.mon.acquisitions++
		l.mon.transition(StateLocked) // Figure 4: unlocked -> locked
		l.setOwner(t)
		l.unlockGuard(t)
		l.note(EventAcquire, t.Now(), t.Name(), "")
		l.injectHolderStall(t)
		return true
	}
	// Busy: enqueue and enter the waiting policy chosen by Γ_Acq.
	e := &entry{t: t, prio: t.Priority(), deadline: deadline, regAt: t.Now()}
	t.Compute(l.costs.QueueOp)
	l.queue = append(l.queue, e)
	if len(l.queue) > l.mon.maxQueue {
		l.mon.maxQueue = len(l.queue)
	}
	l.mon.contended++
	holder := ""
	if l.ownerT != nil {
		holder = l.ownerT.Name()
	}
	l.sink.LockEvent(Event{Kind: EventWait, At: t.Now(), Actor: t.Name(), Other: holder})
	l.unlockGuard(t)
	l.injectWaiterPreempt(t)
	return l.wait(t, e)
}

// policyFor implements the Γ_Acq mapping from thread id to waiting method:
// a per-thread override if one is registered, otherwise the lock-wide Φ.
func (l *Lock) policyFor(t *cthread.Thread) Params {
	if p, ok := l.perThread[t.ID()]; ok {
		return p
	}
	return l.params
}

// wait delays t until it is granted the lock (directed handoff through the
// owner word) or its conditional timeout expires.
func (l *Lock) wait(t *cthread.Thread, e *entry) bool {
	// The acquisition module consults the configuration state.
	p := unpack(l.paramsW.Read(t))
	if op, ok := l.perThread[t.ID()]; ok {
		p = op
	}
	var deadline sim.Time
	hasDeadline := p.Timeout > 0
	if hasDeadline {
		deadline = t.Now() + sim.Time(p.Timeout)
		// Latch the expiry in the registration entry so the release
		// module can purge us if we time out before deregistering
		// ourselves (see purgeExpired).
		e.abortAt = deadline
	}
	for {
		// Spin phase.
		spins := p.SpinTime
		for spins != 0 {
			if l.ownerW.Read(t) == t.ID() {
				return l.granted(t, e)
			}
			l.mon.spinIters++
			if hasDeadline && t.Now() >= deadline {
				return l.abandon(t, e)
			}
			if p.DelayTime > 0 {
				t.Compute(p.DelayTime)
			}
			if spins > 0 {
				spins--
			}
		}
		if p.SleepTime == 0 {
			// Pure spinning with a finite SpinTime and no sleep falls
			// back to continued spinning under the (possibly updated)
			// policy — the advisory lock's waiters pick up new advice
			// here.
			p = l.refreshPolicy(t, p)
			continue
		}
		// Sleep phase.
		l.lockGuard(t)
		if l.ownerW.Read(t) == t.ID() {
			l.unlockGuard(t)
			return l.granted(t, e)
		}
		e.sleeping = true
		l.unlockGuard(t)
		l.mon.sleepEpisodes++
		switch {
		case p.SleepTime == SleepUntilWoken && hasDeadline:
			remain := sim.Duration(deadline - t.Now())
			if remain <= 0 {
				remain = 1
			}
			t.BlockTimeout(remain)
		case p.SleepTime == SleepUntilWoken:
			t.Block()
		default:
			episode := p.SleepTime
			if hasDeadline {
				if remain := sim.Duration(deadline - t.Now()); remain < episode {
					episode = remain
					if episode <= 0 {
						episode = 1
					}
				}
			}
			t.BlockTimeout(episode)
		}
		l.lockGuard(t)
		e.sleeping = false
		if l.ownerW.Read(t) == t.ID() {
			l.unlockGuard(t)
			return l.granted(t, e)
		}
		if hasDeadline && t.Now() >= deadline {
			return l.abandonLocked(t, e)
		}
		l.unlockGuard(t)
		p = l.refreshPolicy(t, p)
	}
}

// refreshPolicy re-reads the effective policy between waiting rounds,
// preserving the original deadline semantics (Timeout is latched at entry).
func (l *Lock) refreshPolicy(t *cthread.Thread, old Params) Params {
	p := l.policyFor(t)
	p.Timeout = old.Timeout
	return p
}

// granted finalizes a successful contended acquisition.
func (l *Lock) granted(t *cthread.Thread, e *entry) bool {
	now := t.Now()
	waited, idle := sim.Duration(now-e.regAt), sim.Duration(now-l.mon.idleStart)
	l.mon.acquisitions++
	l.mon.waitTotal += waited
	// Figure 4: idle -> locked; the idle span just ended is one locking
	// cycle (the grantee has completed its acquisition).
	l.mon.transition(StateLocked)
	l.mon.idleTotal += idle
	l.mon.idleSpans++
	l.sink.LockEvent(Event{Kind: EventAcquire, At: now, Actor: t.Name(), Waited: waited, Idle: idle})
	l.injectHolderStall(t)
	return true
}

// abandon gives up a conditional acquisition from the spin phase.
func (l *Lock) abandon(t *cthread.Thread, e *entry) bool {
	l.lockGuard(t)
	return l.abandonLocked(t, e)
}

// abandonLocked gives up with the guard held: either the grant raced ahead
// of us (accept it) or we deregister and fail.
func (l *Lock) abandonLocked(t *cthread.Thread, e *entry) bool {
	if l.ownerW.Read(t) == t.ID() {
		l.unlockGuard(t)
		return l.granted(t, e)
	}
	for i, q := range l.queue {
		if q == e {
			copy(l.queue[i:], l.queue[i+1:])
			l.queue = l.queue[:len(l.queue)-1]
			break
		}
	}
	t.Compute(l.costs.QueueOp)
	l.mon.failures++
	l.unlockGuard(t)
	l.note(EventTimeout, t.Now(), t.Name(), "conditional acquisition abandoned")
	return false
}

// --- Υ_u: the unlock operation ---

// Unlock releases the lock. The caller must be the current owner.
func (l *Lock) Unlock(t *cthread.Thread) {
	l.injectReleaseDelay(t)
	if l.server != nil {
		l.postRelease(t, 0)
		return
	}
	t.Compute(l.costs.UnlockOp)
	l.release(t, 0)
}

// UnlockTo releases the lock with a handoff hint: under the Handoff
// scheduler the critical section passes directly to target.
func (l *Lock) UnlockTo(t *cthread.Thread, target *cthread.Thread) {
	hint := int64(0)
	if target != nil {
		hint = target.ID()
	}
	l.injectReleaseDelay(t)
	if l.server != nil {
		l.postRelease(t, hint)
		return
	}
	t.Compute(l.costs.UnlockOp + l.costs.HandoffHintOp)
	if hint != 0 {
		l.hintW.Write(t, hint)
	}
	l.release(t, hint)
}

// release is Γ_Rel: grant the lock to the next thread per the current
// scheduler, or free it. byT is the thread executing the release module
// (the unlocker for passive locks, the server for active locks).
func (l *Lock) release(byT *cthread.Thread, hint int64) {
	l.note(EventUnlock, byT.Now(), byT.Name(), "")
	l.lockGuard(byT)
	held := sim.Duration(byT.Now() - l.mon.holdStart)
	l.mon.holdTotal += held
	l.sink.LockEvent(Event{Kind: EventRelease, At: byT.Now(), Actor: byT.Name(), Held: held})
	// "The extra work required to check for currently blocked threads."
	_ = l.regW.Read(byT)
	// Timed-out conditional waiters must leave the registration queue
	// before the scheduler picks, so a release never grants the lock to
	// an abandoned thread. A waiter abandoned here also counts toward
	// the configuration delay: an aborted pre-registered thread no
	// longer has to be "served".
	l.purgeExpired(byT.Now(), byT)
	if l.havePending && len(l.queue) == 0 {
		// Configuration delay over: all pre-registered threads served;
		// discard the old scheduler and reset the flag (the 5th write).
		l.sched = l.pendingSched
		l.havePending = false
		l.schedFlag.Write(byT, 0)
	}
	if len(l.queue) == 0 {
		l.ownerW.Write(byT, 0)
		l.setOwner(nil)
		l.mon.transition(StateUnlocked) // Figure 4: locked -> unlocked
		l.unlockGuard(byT)
		return
	}
	// Figure 4: locked -> idle; the idle state lasts until the grantee
	// completes its acquisition.
	l.mon.transition(StateIdle)
	l.mon.idleStart = byT.Now()
	e, rest := pickNext(l.queue, l.sched, hint, l.threshold)
	l.queue = rest
	byT.Compute(l.costs.QueueOp)
	l.ownerW.Write(byT, e.t.ID())
	l.mon.grants++
	l.setOwner(e.t)
	sleeping := e.sleeping
	l.unlockGuard(byT)
	l.sink.LockEvent(Event{Kind: EventGrant, At: byT.Now(), Actor: byT.Name(), Other: e.t.Name(), Detail: l.sched.String()})
	if sleeping {
		l.mon.wakeups++
		byT.Unblock(e.t)
	}
}

// --- monitor ---

// Probe samples the monitor on behalf of t (one charged read).
func (l *Lock) Probe(t *cthread.Thread) Snapshot {
	t.Compute(l.costs.ProbeOp)
	_ = l.regW.Read(t)
	return l.mon.snapshot(t.Now(), len(l.queue))
}

// MonitorSnapshot samples the monitor without charging anyone (for engine
// callbacks and the harness).
func (l *Lock) MonitorSnapshot() Snapshot {
	return l.mon.snapshot(l.m.Eng.Now(), len(l.queue))
}
