package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file exports a Tracer's event ring in the Chrome trace-event JSON
// format, so any run can be opened in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing:
//
//   - lock-held spans (acquire -> release by the same actor) become
//     duration events (ph "X");
//   - waits (request -> contended acquire) become flow events (ph "s"
//     start at registration, ph "f" finish at grant), drawing an arrow
//     across the wait; acquisitions marked "uncontended" draw no flow;
//   - reconfigurations and every other event become instants (ph "i").
//
// Timestamps ("ts") are microseconds, the unit the format requires; each
// actor (thread) is given its own tid so rows line up with simulated
// threads.

// ChromeEvent is one entry of the traceEvents array.
type ChromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Dur   float64           `json:"dur,omitempty"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	ID    string            `json:"id,omitempty"`
	Scope string            `json:"s,omitempty"`
	BP    string            `json:"bp,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// ChromeFile is the top-level JSON object of the export. OtherData is
// the format's free-form metadata object; locktrace stores telemetry
// identity there so a trace file names its live-scrape counterpart.
type ChromeFile struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// chromePid is the single simulated process all events belong to.
const chromePid = 1

// ChromeEvents converts a timeline to Chrome trace events.
func ChromeEvents(events []Event) []ChromeEvent {
	var out []ChromeEvent
	tids := map[string]int{}
	tidOf := func(actor string) int {
		if id, ok := tids[actor]; ok {
			return id
		}
		id := len(tids) + 1
		tids[actor] = id
		return id
	}
	args := func(e Event) map[string]string {
		a := map[string]string{"actor": e.Actor, "object": e.Object}
		if e.Detail != "" {
			a["detail"] = e.Detail
		}
		return a
	}
	// Open acquisitions / registrations, keyed by object then actor.
	type open struct {
		ts   float64
		args map[string]string
	}
	held := map[string]map[string]open{}    // object -> actor -> acquire
	waiting := map[string]map[string]open{} // object -> actor -> request
	flowSeq := 0
	lastTs := 0.0
	for _, e := range events {
		if ts := e.At.Us(); ts > lastTs {
			lastTs = ts
		}
	}
	for _, e := range events {
		ts := e.At.Us()
		tid := tidOf(e.Actor)
		switch e.Kind {
		case LockRequest:
			if waiting[e.Object] == nil {
				waiting[e.Object] = map[string]open{}
			}
			waiting[e.Object][e.Actor] = open{ts: ts, args: args(e)}
		case LockAcquire:
			if held[e.Object] == nil {
				held[e.Object] = map[string]open{}
			}
			held[e.Object][e.Actor] = open{ts: ts, args: args(e)}
			if e.Detail == "uncontended" {
				// No wait to draw; drop the pending registration.
				delete(waiting[e.Object], e.Actor)
				break
			}
			if req, ok := waiting[e.Object][e.Actor]; ok {
				delete(waiting[e.Object], e.Actor)
				flowSeq++
				id := fmt.Sprintf("wait-%d", flowSeq)
				name := "wait " + e.Object
				out = append(out,
					ChromeEvent{Name: name, Cat: "wait", Ph: "s", Ts: req.ts, Pid: chromePid, Tid: tid, ID: id, Args: req.args},
					ChromeEvent{Name: name, Cat: "wait", Ph: "f", BP: "e", Ts: ts, Pid: chromePid, Tid: tid, ID: id, Args: args(e)})
			}
		case LockRelease:
			if acq, ok := held[e.Object][e.Actor]; ok {
				delete(held[e.Object], e.Actor)
				dur := ts - acq.ts
				if dur < 0 {
					dur = 0
				}
				out = append(out, ChromeEvent{
					Name: "hold " + e.Object, Cat: "hold", Ph: "X",
					Ts: acq.ts, Dur: dur, Pid: chromePid, Tid: tid, Args: acq.args,
				})
			} else {
				out = append(out, instant(e, ts, tid, args(e)))
			}
		default:
			out = append(out, instant(e, ts, tid, args(e)))
		}
	}
	// Spans still open when the ring ends are closed at the last
	// timestamp so they remain visible, in a fixed order (map iteration
	// order is random).
	tail := len(out)
	for object, actors := range held {
		for actor, acq := range actors {
			dur := lastTs - acq.ts
			if dur < 0 {
				dur = 0
			}
			out = append(out, ChromeEvent{
				Name: "hold " + object, Cat: "hold", Ph: "X",
				Ts: acq.ts, Dur: dur, Pid: chromePid, Tid: tidOf(actor), Args: acq.args,
			})
		}
	}
	sort.Slice(out[tail:], func(i, j int) bool {
		a, b := out[tail+i], out[tail+j]
		return a.Ts < b.Ts || a.Ts == b.Ts && (a.Tid < b.Tid || a.Tid == b.Tid && a.Name < b.Name)
	})
	return out
}

// instant builds a ph "i" event.
func instant(e Event, ts float64, tid int, a map[string]string) ChromeEvent {
	return ChromeEvent{
		Name: e.Kind.String() + " " + e.Object, Cat: e.Kind.String(),
		Ph: "i", Scope: "t", Ts: ts, Pid: chromePid, Tid: tid, Args: a,
	}
}

// Chrome packages the tracer's retained events as a ChromeFile. Safe on a
// nil receiver (empty file).
func (t *Tracer) Chrome() ChromeFile {
	evs := ChromeEvents(t.Events())
	if evs == nil {
		evs = []ChromeEvent{}
	}
	return ChromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"}
}

// WriteChrome writes the retained timeline to w as Chrome trace-event
// JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Chrome())
}
