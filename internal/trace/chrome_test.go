package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// contendedTimeline is a small two-thread interleaving: a holds while b
// waits, a reconfiguration fires mid-run, then b acquires and releases.
func contendedTimeline() *Tracer {
	tr := New(32)
	at := func(us float64) sim.Time { return sim.Time(sim.Us(us)) }
	tr.Emit(Event{At: at(10), Kind: LockRequest, Actor: "a", Object: "L"})
	tr.Emit(Event{At: at(11), Kind: LockAcquire, Actor: "a", Object: "L", Detail: "uncontended"})
	tr.Emit(Event{At: at(20), Kind: LockRequest, Actor: "b", Object: "L"})
	tr.Emit(Event{At: at(30), Kind: Reconfigure, Actor: "agent", Object: "L", Detail: "waiting policy -> sleep"})
	tr.Emit(Event{At: at(40), Kind: LockRelease, Actor: "a", Object: "L"})
	tr.Emit(Event{At: at(41), Kind: LockGrant, Actor: "a", Object: "L", Detail: "-> b (fcfs)"})
	tr.Emit(Event{At: at(45), Kind: LockAcquire, Actor: "b", Object: "L", Detail: "waited 25.00us"})
	tr.Emit(Event{At: at(70), Kind: LockRelease, Actor: "b", Object: "L"})
	return tr
}

func TestChromeFileShape(t *testing.T) {
	var buf bytes.Buffer
	if err := contendedTimeline().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	// The export must round-trip as generic JSON with the documented
	// top-level shape and only the four phase types.
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc["displayTimeUnit"] != "ms" {
		t.Errorf("displayTimeUnit = %v, want ms", doc["displayTimeUnit"])
	}
	events, ok := doc["traceEvents"].([]interface{})
	if !ok || len(events) == 0 {
		t.Fatalf("traceEvents missing or empty: %T", doc["traceEvents"])
	}
	for i, raw := range events {
		e := raw.(map[string]interface{})
		ph, _ := e["ph"].(string)
		switch ph {
		case "X", "i", "s", "f":
		default:
			t.Errorf("event %d: ph = %q, want one of X i s f", i, ph)
		}
		if _, ok := e["ts"].(float64); !ok {
			t.Errorf("event %d: ts missing", i)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Errorf("event %d: pid missing", i)
		}
		if _, ok := e["tid"].(float64); !ok {
			t.Errorf("event %d: tid missing", i)
		}
		if name, _ := e["name"].(string); name == "" {
			t.Errorf("event %d: name missing", i)
		}
	}
}

func TestChromeEventsPairing(t *testing.T) {
	evs := ChromeEvents(contendedTimeline().Events())
	byPh := map[string][]ChromeEvent{}
	for _, e := range evs {
		byPh[e.Ph] = append(byPh[e.Ph], e)
	}
	// Two held spans: a [11, 40] and b [45, 70].
	if len(byPh["X"]) != 2 {
		t.Fatalf("X events = %d, want 2", len(byPh["X"]))
	}
	a, b := byPh["X"][0], byPh["X"][1]
	if a.Ts != 11 || a.Dur != 29 {
		t.Errorf("span a = ts %v dur %v, want 11/29", a.Ts, a.Dur)
	}
	if b.Ts != 45 || b.Dur != 25 {
		t.Errorf("span b = ts %v dur %v, want 45/25", b.Ts, b.Dur)
	}
	if a.Tid == b.Tid {
		t.Error("spans of different actors share a tid")
	}
	// One contended wait: flow start at b's request, finish at its grant,
	// sharing an id.
	if len(byPh["s"]) != 1 || len(byPh["f"]) != 1 {
		t.Fatalf("flow events = %d starts, %d finishes, want 1/1", len(byPh["s"]), len(byPh["f"]))
	}
	s, f := byPh["s"][0], byPh["f"][0]
	if s.Ts != 20 || f.Ts != 45 {
		t.Errorf("flow = start %v finish %v, want 20/45", s.Ts, f.Ts)
	}
	if s.ID == "" || s.ID != f.ID {
		t.Errorf("flow ids = %q / %q, want matching non-empty", s.ID, f.ID)
	}
	// The reconfiguration and the grant render as instants.
	var sawReconfigure bool
	for _, e := range byPh["i"] {
		if strings.HasPrefix(e.Name, "reconfigure") {
			sawReconfigure = true
		}
	}
	if !sawReconfigure {
		t.Error("no reconfigure instant in export")
	}
}

func TestChromeOpenSpanClosedAtEnd(t *testing.T) {
	tr := New(8)
	tr.Emit(Event{At: sim.Time(sim.Us(5)), Kind: LockAcquire, Actor: "a", Object: "L"})
	tr.Emit(Event{At: sim.Time(sim.Us(50)), Kind: Reconfigure, Actor: "a", Object: "L"})
	evs := ChromeEvents(tr.Events())
	var spans []ChromeEvent
	for _, e := range evs {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1 (open span closed at last timestamp)", len(spans))
	}
	if spans[0].Ts != 5 || spans[0].Dur != 45 {
		t.Errorf("open span = ts %v dur %v, want 5/45", spans[0].Ts, spans[0].Dur)
	}
}

func TestChromeNilAndEmptyTracer(t *testing.T) {
	var tr *Tracer
	f := tr.Chrome()
	if f.DisplayTimeUnit != "ms" || f.TraceEvents == nil || len(f.TraceEvents) != 0 {
		t.Fatalf("nil tracer export = %+v", f)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents": []`) {
		t.Errorf("empty export = %s", buf.String())
	}
}

func TestSummaryReportsDropped(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{At: sim.Time(sim.Us(float64(i))), Kind: Reconfigure, Actor: "a", Object: "L"})
	}
	// Capacity 2, 5 emits: 3 overwritten by ring overflow.
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "dropped=3") {
		t.Errorf("Summary = %q, want it to report dropped=3", sum)
	}
	// A ring that never overflowed stays silent about drops.
	quiet := New(10)
	quiet.Emit(Event{Kind: Reconfigure, Actor: "a", Object: "L"})
	if s := quiet.Summary(); strings.Contains(s, "dropped") {
		t.Errorf("Summary = %q, want no dropped report", s)
	}
}
