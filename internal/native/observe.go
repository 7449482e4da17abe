package native

import "time"

// This file is the mutex's telemetry surface: one event sink, boxed on
// the mutex, that receives every lifecycle transition. Consumers —
// latency histograms and contention profiles (internal/telemetry), the
// event journal (internal/journal) — are sinks; TeeSink runs several on
// one mutex. The sink is called outside the guard, on the acquiring or
// releasing goroutine, and must not call back into the mutex.

// EventKind classifies a LockEvent.
type EventKind uint8

// Event kinds, covering every exit of the acquisition path plus release,
// plus the out-of-band lifecycle transitions (watchdog, owner death,
// reconfiguration) a flight journal needs to replay history.
const (
	// EventWait fires when an acquisition fails the fast path and enters
	// the waiting policy.
	EventWait EventKind = iota
	// EventAcquire fires on every successful acquisition (contended or
	// not); Waited is the registration-to-grant delay: 0 uncontended,
	// positive for a contended grant.
	EventAcquire
	// EventRelease fires on every voluntary release; Held is the tenure
	// length.
	EventRelease
	// EventTimeout fires when a conditional acquisition gives up.
	EventTimeout
	// EventAbort fires when a waiter exits for any other reason: context
	// cancellation or a watchdog stall abort.
	EventAbort
	// EventWatchdog fires on a hold-deadline watchdog trip (on the timer
	// goroutine); Held is the stalled tenure's length so far.
	EventWatchdog
	// EventOwnerDead fires when DeclareOwnerDead force-releases the lock;
	// Held is the dead owner's tenure, Tag the tag it acquired under.
	EventOwnerDead
	// EventReconfig fires when SetPolicy or SetScheduler changes the
	// lock's configuration.
	EventReconfig
)

func (k EventKind) String() string {
	switch k {
	case EventWait:
		return "wait"
	case EventAcquire:
		return "acquire"
	case EventRelease:
		return "release"
	case EventTimeout:
		return "timeout"
	case EventAbort:
		return "abort"
	case EventWatchdog:
		return "watchdog"
	case EventOwnerDead:
		return "owner-dead"
	case EventReconfig:
		return "reconfig"
	}
	return "event(?)"
}

// LockEvent is one lifecycle event delivered to an EventSink. Tag is the
// acquirer's handoff identity (0 anonymous) — for EventRelease it is the
// tag the departing owner acquired under.
type LockEvent struct {
	Kind   EventKind
	Tag    uint64
	Prio   int64
	When   time.Time
	Waited time.Duration // EventAcquire only
	Held   time.Duration // EventRelease only
}

// EventSink receives lifecycle events from the mutex's hot paths — the
// mutex's only hook: latency histograms, contention profiles and the
// journal all consume this one stream. Calls are made
// outside the guard on the acquiring/releasing goroutine (the timer
// goroutine for EventWatchdog); every EventWait is eventually paired
// with exactly one of EventAcquire, EventTimeout, or EventAbort.
// Implementations must be safe for concurrent use and must not call
// back into the mutex.
type EventSink interface {
	LockEvent(LockEvent)
}

// NopSink is the sink installed by default: every mutex always has a
// sink boxed, so the hot path pays one atomic load and a nil-free
// indirect call when nothing is attached — no branch, no interface-nil
// check (ROADMAP item 5).
var NopSink EventSink = nopSink{}

type nopSink struct{}

func (nopSink) LockEvent(LockEvent) {}

// TeeSink fans one event stream out to several sinks, skipping nils,
// so a telemetry entry and a journal can both observe one mutex. With
// zero or one effective sink it returns NopSink or the sink itself —
// no tee overhead unless genuinely fanning out.
func TeeSink(sinks ...EventSink) EventSink {
	var eff []EventSink
	for _, s := range sinks {
		if s != nil && s != NopSink {
			eff = append(eff, s)
		}
	}
	switch len(eff) {
	case 0:
		return NopSink
	case 1:
		return eff[0]
	}
	return teeSink(eff)
}

type teeSink []EventSink

func (t teeSink) LockEvent(e LockEvent) {
	for _, s := range t {
		s.LockEvent(e)
	}
}

// sinkBox wraps the sink so atomic.Value can hold (and clear) it.
type sinkBox struct{ s EventSink }

// SetEventSink attaches a lifecycle event sink. Pass nil to detach
// (the no-op sink takes its place).
func (m *Mutex) SetEventSink(s EventSink) {
	if s == nil {
		s = NopSink
	}
	m.esink.Store(sinkBox{s})
}

// eventSink returns the boxed sink; never nil. The Load-nil branch
// exists only for a Mutex that skipped New (zero value misuse) — New
// boxes NopSink up front.
func (m *Mutex) eventSink() EventSink {
	v := m.esink.Load()
	if v == nil {
		return NopSink
	}
	return v.(sinkBox).s
}

// emitEvent delivers a lifecycle event. Must be called without the
// guard. when is supplied by the caller from a timestamp the path has
// already computed (holdStart, waitStart) so the journaling-off fast
// path adds no clock reads.
func (m *Mutex) emitEvent(kind EventKind, tag uint64, prio int64, when time.Time, waited, held time.Duration) {
	m.eventSink().LockEvent(LockEvent{Kind: kind, Tag: tag, Prio: prio, When: when, Waited: waited, Held: held})
}

// finishWait charges a completed contended acquisition to the
// wait-time counter and the event sink. Must be called without the
// guard.
func (m *Mutex) finishWait(waitStart time.Time, tag uint64, prio int64) {
	d := time.Since(waitStart)
	m.waitNanos.Add(int64(d))
	m.emitEvent(EventAcquire, tag, prio, waitStart.Add(d), d, 0)
}
