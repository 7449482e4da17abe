package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cthread"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The trace package consumes the lock's events, so these tests live
// outside package core.

func newSys(procs int) *cthread.System {
	cfg := machine.DefaultGP1000()
	cfg.Procs = procs
	return cthread.NewSystem(machine.New(cfg))
}

func mustRun(t *testing.T, s *cthread.System) {
	t.Helper()
	if err := s.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLockEmitsTraceTimeline(t *testing.T) {
	s := newSys(4)
	l := core.New(s, core.Options{Params: core.SleepParams()})
	tr := trace.New(64)
	l.SetEventSink(tr.Sink("buffer-lock"))

	s.Spawn("holder", 0, 0, func(th *cthread.Thread) {
		l.Lock(th)
		_ = l.Advise(th, core.SpinParams())
		th.Compute(sim.Us(1000))
		l.Unlock(th)
	})
	s.SpawnAt(sim.Us(100), "waiter", 1, 0, func(th *cthread.Thread) {
		l.Lock(th)
		th.Compute(sim.Us(10))
		l.Unlock(th)
	})
	mustRun(t, s)

	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	// The timeline must contain, in order: holder request, holder
	// uncontended acquire, a reconfigure, waiter request, holder release
	// with a grant to the waiter, waiter acquire.
	seq := []struct {
		kind  trace.Kind
		actor string
	}{
		{trace.LockRequest, "holder"},
		{trace.LockAcquire, "holder"},
		{trace.Reconfigure, "holder"},
		{trace.LockRequest, "waiter"},
		{trace.LockRelease, "holder"},
		{trace.LockGrant, "holder"},
		{trace.LockAcquire, "waiter"},
	}
	i := 0
	for _, e := range events {
		if i < len(seq) && e.Kind == seq[i].kind && e.Actor == seq[i].actor {
			i++
		}
	}
	if i != len(seq) {
		for _, e := range events {
			t.Log(e.String())
		}
		t.Fatalf("timeline missing step %d (%v by %s)", i, seq[i].kind, seq[i].actor)
	}
	// Events must be time-ordered.
	for j := 1; j < len(events); j++ {
		if events[j].At < events[j-1].At {
			t.Fatalf("events out of order at %d", j)
		}
	}
}

func TestTimeoutEmitsTraceEvent(t *testing.T) {
	s := newSys(4)
	l := core.New(s, core.Options{Params: core.ConditionalParams(core.SleepParams(), sim.Us(200))})
	tr := trace.New(32)
	l.SetEventSink(tr.Sink("cond-lock"))
	s.Spawn("holder", 0, 0, func(th *cthread.Thread) {
		l.Lock(th)
		th.Compute(sim.Us(5000))
		l.Unlock(th)
	})
	s.SpawnAt(sim.Us(50), "loser", 1, 0, func(th *cthread.Thread) {
		_ = l.Acquire(th)
	})
	mustRun(t, s)
	found := false
	for _, e := range tr.Events() {
		if e.Kind == trace.LockTimeout && e.Actor == "loser" {
			found = true
		}
	}
	if !found {
		t.Fatal("no timeout event in trace")
	}
}

func TestUntracedLockIsSilent(t *testing.T) {
	s := newSys(2)
	l := core.New(s, core.Options{})
	s.Spawn("t", 0, 0, func(th *cthread.Thread) {
		l.Lock(th)
		l.Unlock(th)
	})
	mustRun(t, s) // must not panic with no sink attached
}
