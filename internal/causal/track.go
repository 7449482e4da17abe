package causal

import (
	"sync"

	"repro/internal/sim"
)

// SimTracker adapts one simulated lock's causal hooks into spans, graph
// edges and flight events. It satisfies core.CausalObserver structurally
// (this package does not import core): attach with
// lock.SetCausalObserver(tracker). Timestamps are simulated nanoseconds.
type SimTracker struct {
	Object string    // lock name used for graph/flight/span Object
	Rec    *Recorder // nil = don't record spans
	Graph  *Graph    // nil = don't maintain edges
	Flight *Flight   // nil = don't flight-record

	mu     sync.Mutex
	waits  map[string]simWait
	holder string
	hold   struct {
		trace  TraceID
		parent SpanID
		start  int64
	}
}

type simWait struct {
	trace TraceID
	span  SpanID
	start int64
}

// LockWait implements core.CausalObserver.
func (tk *SimTracker) LockWait(at sim.Time, actor, holder string) {
	tk.mu.Lock()
	if tk.waits == nil {
		tk.waits = make(map[string]simWait)
	}
	tk.waits[actor] = simWait{trace: NewTraceID(), span: NewSpanID(), start: int64(at)}
	tk.mu.Unlock()
	tk.Graph.AddWait(actor, tk.Object)
	tk.Flight.RecordAt(int64(at), tk.Object, "wait", actor, "holder="+holder)
}

// LockWaitDone implements core.CausalObserver.
func (tk *SimTracker) LockWaitDone(at sim.Time, actor string, acquired bool) {
	tk.mu.Lock()
	w, ok := tk.waits[actor]
	delete(tk.waits, actor)
	tk.mu.Unlock()
	tk.Graph.RemoveWait(actor, tk.Object)
	if !acquired {
		tk.Flight.RecordAt(int64(at), tk.Object, "timeout", actor, "")
	}
	if ok && tk.Rec != nil {
		outcome := "acquired"
		if !acquired {
			outcome = "timeout"
		}
		tk.Rec.Record(Span{
			Trace: w.trace, ID: w.span, Name: "wait",
			Actor: actor, Object: tk.Object,
			Start: w.start, End: int64(at),
			Attrs: map[string]string{"outcome": outcome},
		})
	}
}

// LockOwner implements core.CausalObserver. It closes the departing
// owner's hold span and opens the new one; the new hold joins the trace
// the owner's wait started (uncontended acquisitions start a fresh
// trace).
func (tk *SimTracker) LockOwner(at sim.Time, actor string) {
	tk.mu.Lock()
	if tk.holder != "" && tk.Rec != nil {
		tk.Rec.Record(Span{
			Trace: tk.hold.trace, ID: NewSpanID(), Parent: tk.hold.parent, Name: "hold",
			Actor: tk.holder, Object: tk.Object,
			Start: tk.hold.start, End: int64(at),
		})
	}
	prev := tk.holder
	tk.holder = actor
	if actor != "" {
		if w, ok := tk.waits[actor]; ok {
			tk.hold.trace, tk.hold.parent = w.trace, w.span
		} else {
			tk.hold.trace, tk.hold.parent = NewTraceID(), 0
		}
		tk.hold.start = int64(at)
	}
	tk.mu.Unlock()
	if actor != "" {
		// The grant lands in the releaser's context, before the grantee
		// resumes and reports LockWaitDone — drop the wait edge first so
		// the graph never sees the new owner waiting on its own lock.
		tk.Graph.RemoveWait(actor, tk.Object)
	}
	tk.Graph.SetHolder(tk.Object, actor)
	switch {
	case actor != "":
		tk.Flight.RecordAt(int64(at), tk.Object, "acquire", actor, "")
	case prev != "":
		tk.Flight.RecordAt(int64(at), tk.Object, "release", prev, "")
	}
}
