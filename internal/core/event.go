package core

import (
	"fmt"

	"repro/internal/sim"
)

// EventKind classifies an Event.
type EventKind uint8

// Event kinds. Actor is the thread the event happened to; the rare kinds
// (timeout, reconfiguration, fault, watchdog, owner death, abandon)
// carry a Detail.
const (
	EventRequest EventKind = iota // Actor entered the lock operation (registration written)
	// EventWait: Actor failed the fast path and registered; Other is the
	// owner at registration ("" if racing a release). Every EventWait is
	// paired with one contended EventAcquire or one EventTimeout.
	EventWait
	// EventOwner: ownership changed hands to Actor ("" = now free);
	// Other is the departing owner ("" if the lock was free) and Held
	// its tenure up to At.
	EventOwner
	// EventAcquire: Actor's acquisition completed. Waited is the
	// registration-to-grant delay, 0 when uncontended; a contended
	// acquisition also carries Idle, the locking cycle it ends.
	EventAcquire
	EventTimeout // Actor abandoned a conditional acquisition
	EventUnlock  // Actor (the unlocker, or an active lock's server) entered the release module
	EventRelease // the release module took the guard; Held is the tenure that ended
	EventGrant   // Actor handed the lock to Other; Detail names the scheduler
	EventReconfig
	EventFault
	EventWatchdog // the hold deadline tripped on owner Actor
	// EventOwnerDeath: a dead owner or attribute possessor was recovered
	// from. A force-released lock tenure carries Held, as EventRelease
	// does: every ended tenure is one of the two. An attribute
	// possession carries no Held.
	EventOwnerDeath
	EventAbandon // the release module dropped Actor, an expired conditional waiter
)

// Event is one transition of the lock object, stamped with the simulated
// instant it happened.
type Event struct {
	Kind   EventKind
	At     sim.Time
	Actor  string // thread name
	Other  string // the other party: owner at EventWait, departing owner at EventOwner, grantee at EventGrant
	Waited sim.Duration
	Held   sim.Duration
	Idle   sim.Duration
	Detail string
}

// EventSink receives the lock's events: its one observer hook beside the
// monitor. The trace timeline (trace.Tracer.Sink), latency histograms
// (obs.LockObserver) and causal spans (causal.SimTracker) are sinks;
// TeeSink runs several on one lock. Like the monitor counters, calls
// charge no simulated time. Implementations must not call back into the
// lock.
type EventSink interface {
	LockEvent(Event)
}

// NopSink is the sink a lock has when nothing is attached.
var NopSink EventSink = nopSink{}

type nopSink struct{}

func (nopSink) LockEvent(Event) {}

// TeeSink fans one event stream out to several sinks, skipping nils.
// With zero or one effective sink it returns NopSink or the sink itself.
func TeeSink(sinks ...EventSink) EventSink {
	var eff teeSink
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
	return eff
}

type teeSink []EventSink

func (t teeSink) LockEvent(e Event) {
	for _, s := range t {
		s.LockEvent(e)
	}
}

// SetEventSink attaches an event sink. Pass nil to detach.
func (l *Lock) SetEventSink(s EventSink) {
	if s == nil {
		s = NopSink
	}
	l.sink = s
}

// note delivers an event without durations or other party.
func (l *Lock) note(k EventKind, at sim.Time, actor, detail string) {
	l.sink.LockEvent(Event{Kind: k, At: at, Actor: actor, Detail: detail})
}

// notef is note with a formatted detail, formatted only when a sink is
// attached.
func (l *Lock) notef(k EventKind, at sim.Time, actor, format string, args ...any) {
	if l.sink != NopSink {
		l.note(k, at, actor, fmt.Sprintf(format, args...))
	}
}
