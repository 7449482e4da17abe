package causal

import (
	"sync"

	"repro/internal/core"
)

// SimTracker adapts one simulated lock's events into spans, graph edges
// and flight events. It is a core.EventSink: attach with
// lock.SetEventSink(tracker), or tee it with other sinks. Timestamps are
// simulated nanoseconds.
type SimTracker struct {
	Object string    // lock name used for graph/flight/span Object
	Rec    *Recorder // nil = don't record spans
	Graph  *Graph    // nil = don't maintain edges
	Flight *Flight   // nil = don't flight-record

	mu         sync.Mutex
	waits      map[string]simWait
	holdTrace  TraceID // the current hold's trace and parent span
	holdParent SpanID
}

type simWait struct {
	trace TraceID
	span  SpanID
	start int64
}

// LockEvent implements core.EventSink. Every wait is paired with exactly
// one contended acquisition or one timeout.
func (tk *SimTracker) LockEvent(e core.Event) {
	switch e.Kind {
	case core.EventWait:
		tk.wait(e)
	case core.EventAcquire:
		if e.Waited > 0 {
			tk.waitDone(e, true)
		}
	case core.EventTimeout:
		tk.waitDone(e, false)
	case core.EventOwner:
		tk.owner(e)
	}
}

// wait opens actor's wait span: e.Actor failed the fast path while
// e.Other held the lock.
func (tk *SimTracker) wait(e core.Event) {
	tk.mu.Lock()
	if tk.waits == nil {
		tk.waits = make(map[string]simWait)
	}
	tk.waits[e.Actor] = simWait{trace: NewTraceID(), span: NewSpanID(), start: int64(e.At)}
	tk.mu.Unlock()
	tk.Graph.AddWait(e.Actor, tk.Object)
	tk.Flight.RecordAt(int64(e.At), tk.Object, "wait", e.Actor, "holder="+e.Other)
}

// waitDone closes the wait span; acquired=false means a conditional
// acquisition was abandoned.
func (tk *SimTracker) waitDone(e core.Event, acquired bool) {
	actor, at := e.Actor, e.At
	tk.mu.Lock()
	w, ok := tk.waits[actor]
	delete(tk.waits, actor)
	tk.mu.Unlock()
	tk.Graph.RemoveWait(actor, tk.Object)
	outcome := "acquired"
	if !acquired {
		outcome = "timeout"
		tk.Flight.RecordAt(int64(at), tk.Object, outcome, actor, "")
	}
	if ok && tk.Rec != nil {
		tk.Rec.Record(Span{
			Trace: w.trace, ID: w.span, Name: "wait",
			Actor: actor, Object: tk.Object,
			Start: w.start, End: int64(at),
			Attrs: map[string]string{"outcome": outcome},
		})
	}
}

// owner closes the departing owner's hold span and opens the new one;
// the new hold joins the trace the owner's wait started (uncontended
// acquisitions start a fresh trace).
func (tk *SimTracker) owner(e core.Event) {
	actor, at := e.Actor, int64(e.At)
	tk.mu.Lock()
	if e.Other != "" && tk.Rec != nil {
		tk.Rec.Record(Span{
			Trace: tk.holdTrace, ID: NewSpanID(), Parent: tk.holdParent, Name: "hold",
			Actor: e.Other, Object: tk.Object,
			Start: at - int64(e.Held), End: at,
		})
	}
	if actor != "" {
		if w, ok := tk.waits[actor]; ok {
			tk.holdTrace, tk.holdParent = w.trace, w.span
		} else {
			tk.holdTrace, tk.holdParent = NewTraceID(), 0
		}
	}
	tk.mu.Unlock()
	if actor != "" {
		// The grant lands in the releaser's context, before the grantee
		// resumes and reports its acquisition — drop the wait edge first
		// so the graph never sees the new owner waiting on its own lock.
		tk.Graph.RemoveWait(actor, tk.Object)
	}
	tk.Graph.SetHolder(tk.Object, actor)
	switch {
	case actor != "":
		tk.Flight.RecordAt(at, tk.Object, "acquire", actor, "")
	case e.Other != "":
		tk.Flight.RecordAt(at, tk.Object, "release", e.Other, "")
	}
}
