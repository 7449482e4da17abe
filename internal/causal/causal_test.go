package causal

import (
	"fmt"
	"strings"
	"testing"
)

// TestIDStringMatchesFmt pins the hand-written hex form of trace and
// span ids to the bytes fmt's %016x prints.
func TestIDStringMatchesFmt(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xabc, ^uint64(0)} {
		want := fmt.Sprintf("%016x", v)
		if got := TraceID(v).String(); got != want {
			t.Errorf("TraceID(%#x).String() = %q, want %q", v, got, want)
		}
		if got := SpanID(v).String(); got != want {
			t.Errorf("SpanID(%#x).String() = %q, want %q", v, got, want)
		}
	}
}

func TestIDRoundTrip(t *testing.T) {
	SetIDSeed(42)
	tr := NewTraceID()
	sp := NewSpanID()
	if tr == 0 || sp == 0 {
		t.Fatalf("zero IDs generated: trace=%v span=%v", tr, sp)
	}
	if got := ParseTraceID(tr.String()); got != tr {
		t.Fatalf("ParseTraceID(%q) = %v, want %v", tr.String(), got, tr)
	}
	if got := ParseSpanID(sp.String()); got != sp {
		t.Fatalf("ParseSpanID(%q) = %v, want %v", sp.String(), got, sp)
	}
	if len(tr.String()) != 16 {
		t.Fatalf("trace ID %q not 16 hex digits", tr.String())
	}
}

func TestIDSeedDeterminism(t *testing.T) {
	SetIDSeed(7)
	a1, a2 := NewTraceID(), NewSpanID()
	SetIDSeed(7)
	b1, b2 := NewTraceID(), NewSpanID()
	if a1 != b1 || SpanID(a2) != SpanID(b2) {
		t.Fatalf("same seed produced different IDs: (%v,%v) vs (%v,%v)", a1, a2, b1, b2)
	}
}

func TestParseGarbage(t *testing.T) {
	for _, s := range []string{"", "zzzz", "not-hex", "123456789012345678901234"} {
		if got := ParseTraceID(s); got != 0 {
			t.Errorf("ParseTraceID(%q) = %v, want 0", s, got)
		}
		if got := ParseSpanID(s); got != 0 {
			t.Errorf("ParseSpanID(%q) = %v, want 0", s, got)
		}
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 20; i++ {
		r.Record(Span{Trace: TraceID(i + 1), Start: int64(i), End: int64(i + 1)})
	}
	if r.Len() != 16 {
		t.Fatalf("Len = %d, want 16", r.Len())
	}
	if r.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", r.Dropped())
	}
	spans := r.Spans()
	if spans[0].Trace != 5 || spans[len(spans)-1].Trace != 20 {
		t.Fatalf("ring order wrong: first=%d last=%d", spans[0].Trace, spans[len(spans)-1].Trace)
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("after Reset: Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(Span{}) // must not panic
	if r.Spans() != nil || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
	r.Reset()
}

func TestByTrace(t *testing.T) {
	spans := []Span{
		{Trace: 1, Name: "hold", Start: 10},
		{Trace: 2, Name: "wait", Start: 5},
		{Trace: 1, Name: "wait", Start: 1},
	}
	groups := ByTrace(spans)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	g := groups[1]
	if len(g) != 2 || g[0].Name != "wait" || g[1].Name != "hold" {
		t.Fatalf("trace 1 group not start-sorted: %+v", g)
	}
}

func TestSpanDur(t *testing.T) {
	if d := (Span{Start: 5, End: 9}).Dur(); d != 4 {
		t.Fatalf("Dur = %d, want 4", d)
	}
	if d := (Span{Start: 9, End: 5}).Dur(); d != 0 {
		t.Fatalf("negative Dur = %d, want 0", d)
	}
}

func TestFlightRing(t *testing.T) {
	f := NewFlight(16)
	for i := 0; i < 24; i++ {
		f.RecordAt(int64(i), "l1", "wait", "a", "")
	}
	f.RecordAt(100, "l2", "acquire", "b", "tok=1")
	if got := f.Locks(); len(got) != 2 || got[0] != "l1" || got[1] != "l2" {
		t.Fatalf("Locks = %v", got)
	}
	evs := f.Events("l1")
	if len(evs) != 16 {
		t.Fatalf("l1 retained %d events, want 16", len(evs))
	}
	if evs[0].AtNs != 8 || evs[15].AtNs != 23 {
		t.Fatalf("ring order wrong: first=%d last=%d", evs[0].AtNs, evs[15].AtNs)
	}
	if f.Total("l1") != 24 {
		t.Fatalf("Total = %d, want 24", f.Total("l1"))
	}
	var b strings.Builder
	if err := f.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `lock "l2"`) || !strings.Contains(b.String(), "tok=1") {
		t.Fatalf("dump missing content:\n%s", b.String())
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.Record("l", "k", "a", "")
	f.RecordAt(1, "l", "k", "a", "")
	if f.Locks() != nil || f.Events("l") != nil || f.Total("l") != 0 {
		t.Fatal("nil flight not inert")
	}
	var b strings.Builder
	if err := f.Dump(&b); err != nil {
		t.Fatal(err)
	}
}
