package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func ev(atUs float64, k Kind, actor string) Event {
	return Event{At: sim.Time(sim.Us(atUs)), Kind: k, Actor: actor, Object: "L"}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(ev(1, LockRequest, "a")) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestEmitAndOrder(t *testing.T) {
	tr := New(10)
	tr.Emit(ev(1, LockRequest, "a"))
	tr.Emit(ev(2, LockAcquire, "a"))
	tr.Emit(ev(3, LockRelease, "a"))
	es := tr.Events()
	if len(es) != 3 {
		t.Fatalf("len = %d", len(es))
	}
	for i, k := range []Kind{LockRequest, LockAcquire, LockRelease} {
		if es[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, es[i].Kind, k)
		}
	}
}

func TestRingWrapKeepsMostRecentInOrder(t *testing.T) {
	tr := New(3)
	for i := 0; i < 7; i++ {
		tr.Emit(ev(float64(i), Reconfigure, "a"))
	}
	es := tr.Events()
	if len(es) != 3 {
		t.Fatalf("len = %d, want 3", len(es))
	}
	want := []float64{4, 5, 6}
	for i, w := range want {
		if es[i].At != sim.Time(sim.Us(w)) {
			t.Fatalf("events = %v, want times %v", es, want)
		}
	}
}

func TestDumpAndSummary(t *testing.T) {
	tr := New(10)
	tr.Emit(ev(1.5, LockRequest, "worker-1"))
	tr.Emit(ev(2.5, LockGrant, "worker-2"))
	tr.Emit(ev(3.5, LockGrant, "worker-2"))
	var buf bytes.Buffer
	tr.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "request") || !strings.Contains(out, "worker-1") {
		t.Fatalf("dump missing content:\n%s", out)
	}
	sum := tr.Summary()
	if sum != "request=1 grant=2" {
		t.Fatalf("summary = %q", sum)
	}
}

func TestSinkFormatsDetail(t *testing.T) {
	tr := New(8)
	snk := tr.Sink("L")
	at := sim.Time(sim.Us(9))
	snk.LockEvent(core.Event{Kind: core.EventAcquire, At: at, Actor: "a"})
	snk.LockEvent(core.Event{Kind: core.EventAcquire, At: at, Actor: "b", Waited: sim.Us(2)})
	snk.LockEvent(core.Event{Kind: core.EventGrant, At: at, Actor: "a", Other: "b", Detail: "fcfs"})
	snk.LockEvent(core.Event{Kind: core.EventReconfig, At: at, Actor: "agent", Detail: "policy -> sleep"})
	snk.LockEvent(core.Event{Kind: core.EventOwner, At: at, Actor: "b", Other: "a"}) // no timeline line
	want := []string{"uncontended", "waited 2.00us", "-> b (fcfs)", "policy -> sleep"}
	es := tr.Events()
	if len(es) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(es), len(want))
	}
	for i, w := range want {
		if es[i].Detail != w || es[i].Object != "L" {
			t.Errorf("event %d = %q on %q, want %q on L", i, es[i].Detail, es[i].Object, w)
		}
	}
	if !strings.Contains(es[3].String(), "reconfigure") {
		t.Fatalf("String() = %q", es[3].String())
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		LockRequest: "request", LockAcquire: "acquire", LockRelease: "release",
		LockGrant: "grant", LockTimeout: "timeout", Reconfigure: "reconfigure",
	}
	for k, w := range kinds {
		if k.String() != w {
			t.Errorf("Kind(%d) = %q, want %q", int(k), k.String(), w)
		}
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}
