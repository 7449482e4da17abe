// Package trace records simulation events — lock operations, grants,
// reconfigurations, faults — into a bounded ring buffer and renders them
// as a timeline. It is the observability companion to the lock monitor:
// the monitor aggregates, the trace shows the interleaving.
//
// A simulated core.Lock feeds a tracer through Tracer.Sink, which formats
// an event's detail only when it records it. A nil *Tracer is a valid
// no-op receiver.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	LockRequest Kind = iota
	LockAcquire
	LockRelease
	LockGrant
	LockTimeout
	Reconfigure
	FaultInject
	WatchdogTrip
	OwnerDeath
	Abandon
)

var kindNames = [...]string{
	LockRequest: "request", LockAcquire: "acquire", LockRelease: "release",
	LockGrant: "grant", LockTimeout: "timeout", Reconfigure: "reconfigure",
	FaultInject: "fault", WatchdogTrip: "watchdog", OwnerDeath: "owner-death",
	Abandon: "abandon",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	At     sim.Time
	Kind   Kind
	Actor  string // thread name
	Object string // lock / resource name
	Detail string
}

// String renders the event as one timeline line.
func (e Event) String() string {
	s := fmt.Sprintf("%12.2fus  %-11s %-12s %s", e.At.Us(), e.Kind, e.Actor, e.Object)
	if e.Detail != "" {
		s += "  " + e.Detail
	}
	return s
}

// Tracer is a bounded ring buffer of events. A nil Tracer discards
// everything.
type Tracer struct {
	buf     []Event
	next    int
	wrapped bool
	dropped int64
}

// New creates a tracer retaining the most recent capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit records an event. Safe on a nil receiver (no-op).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	// Ring overflow: the oldest retained event is overwritten and lost.
	t.dropped++
	t.buf[t.next] = e
	t.next = (t.next + 1) % cap(t.buf)
	t.wrapped = true
}

// Sink adapts t into a core.EventSink that records the lock's timeline
// events under object: attach with lock.SetEventSink(t.Sink(object)).
// Wait, ownership and release-hold events have no timeline line.
func (t *Tracer) Sink(object string) core.EventSink { return sink{t: t, object: object} }

type sink struct {
	t      *Tracer
	object string
}

// timeline maps the core event kinds that have a timeline line to their
// trace kinds.
var timeline = map[core.EventKind]Kind{
	core.EventRequest: LockRequest, core.EventAcquire: LockAcquire,
	core.EventTimeout: LockTimeout, core.EventUnlock: LockRelease,
	core.EventGrant: LockGrant, core.EventReconfig: Reconfigure,
	core.EventFault: FaultInject, core.EventWatchdog: WatchdogTrip,
	core.EventOwnerDeath: OwnerDeath, core.EventAbandon: Abandon,
}

// LockEvent implements core.EventSink.
func (s sink) LockEvent(e core.Event) {
	k, ok := timeline[e.Kind]
	if !ok || s.t == nil {
		return
	}
	detail := e.Detail
	switch e.Kind {
	case core.EventAcquire:
		detail = "uncontended"
		if e.Waited > 0 {
			detail = fmt.Sprintf("waited %v", e.Waited)
		}
	case core.EventGrant:
		detail = fmt.Sprintf("-> %s (%s)", e.Other, e.Detail)
	}
	s.t.Emit(Event{At: e.At, Kind: k, Actor: e.Actor, Object: s.object, Detail: detail})
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, len(t.buf))
		copy(out, t.buf)
		return out
	}
	out := make([]Event, 0, cap(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Len reports the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped reports events lost to the tracer: overwritten by ring
// overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Dump writes the retained timeline to w.
func (t *Tracer) Dump(w io.Writer) {
	for _, e := range t.Events() {
		fmt.Fprintln(w, e.String())
	}
}

// Summary counts events per kind, rendered as "kind=N" pairs. Events lost
// to ring overflow are reported as a trailing "dropped=N", so
// a wrapped ring is never mistaken for the full timeline.
func (t *Tracer) Summary() string {
	counts := map[Kind]int{}
	var order []Kind
	for _, e := range t.Events() {
		if counts[e.Kind] == 0 {
			order = append(order, e.Kind)
		}
		counts[e.Kind]++
	}
	var parts []string
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	if d := t.Dropped(); d > 0 {
		parts = append(parts, fmt.Sprintf("dropped=%d", d))
	}
	return strings.Join(parts, " ")
}
