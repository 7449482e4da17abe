package core

import (
	"testing"

	"repro/internal/cthread"
	"repro/internal/sim"
)

func TestSnapshotAveragesZeroDivisionGuards(t *testing.T) {
	// A zero snapshot (no activity at all) must yield zero averages, not
	// divide by zero.
	var s Snapshot
	if got := s.AvgIdle(); got != 0 {
		t.Errorf("AvgIdle on empty snapshot = %v, want 0", got)
	}
	if got := s.AvgWait(); got != 0 {
		t.Errorf("AvgWait on empty snapshot = %v, want 0", got)
	}
	if got := s.AvgHold(); got != 0 {
		t.Errorf("AvgHold on empty snapshot = %v, want 0", got)
	}
	if got := s.ContentionRatio(); got != 0 {
		t.Errorf("ContentionRatio on empty snapshot = %v, want 0", got)
	}
	// Totals without spans/counts (a misuse a guard must still survive).
	s = Snapshot{IdleTotal: sim.Us(100), WaitTotal: sim.Us(100), HoldTotal: sim.Us(100)}
	if got := s.AvgIdle(); got != 0 {
		t.Errorf("AvgIdle with IdleSpans=0 = %v, want 0", got)
	}
	if got := s.AvgWait(); got != 0 {
		t.Errorf("AvgWait with Contended=0 = %v, want 0", got)
	}
	if got := s.AvgHold(); got != 0 {
		t.Errorf("AvgHold with Acquisitions=0 = %v, want 0", got)
	}
}

func TestLegalTransitionAllPairs(t *testing.T) {
	legal := map[Transition]bool{
		{StateUnlocked, StateLocked}: true,
		{StateLocked, StateUnlocked}: true,
		{StateLocked, StateIdle}:     true,
		{StateIdle, StateLocked}:     true,
	}
	states := []LockState{StateUnlocked, StateLocked, StateIdle}
	checked := 0
	for _, from := range states {
		for _, to := range states {
			want := legal[Transition{from, to}]
			if got := LegalTransition(from, to); got != want {
				t.Errorf("LegalTransition(%v, %v) = %v, want %v", from, to, got, want)
			}
			checked++
		}
	}
	if checked != 9 {
		t.Fatalf("checked %d pairs, want all 9", checked)
	}
}

func TestSnapshotDelta(t *testing.T) {
	prev := Snapshot{
		At:           sim.Time(sim.Us(100)),
		Acquisitions: 10, Contended: 4, Grants: 9, Wakeups: 2,
		WaitTotal: sim.Us(400), HoldTotal: sim.Us(1000),
		IdleTotal: sim.Us(90), IdleSpans: 9,
		ReconfigWaiting: 1,
	}
	cur := Snapshot{
		At:           sim.Time(sim.Us(600)),
		Acquisitions: 30, Contended: 14, Grants: 29, Wakeups: 8,
		WaitTotal: sim.Us(2400), HoldTotal: sim.Us(3000),
		IdleTotal: sim.Us(290), IdleSpans: 29,
		ReconfigWaiting: 3,
	}
	d := cur.Delta(prev)
	if d.Interval != sim.Us(500) {
		t.Errorf("Interval = %v, want 500us", d.Interval)
	}
	if d.Acquisitions != 20 || d.Contended != 10 || d.Grants != 20 || d.Wakeups != 6 {
		t.Errorf("counter deltas = %+v", d)
	}
	if d.ReconfigWaiting != 2 {
		t.Errorf("ReconfigWaiting = %d, want 2", d.ReconfigWaiting)
	}
	// Interval means use the window's activity, not lifetime totals.
	if got, want := d.AvgWait(), sim.Us(200); got != want {
		t.Errorf("AvgWait = %v, want %v", got, want)
	}
	if got, want := d.AvgHold(), sim.Us(100); got != want {
		t.Errorf("AvgHold = %v, want %v", got, want)
	}
	if got, want := d.AvgIdle(), sim.Us(10); got != want {
		t.Errorf("AvgIdle = %v, want %v", got, want)
	}
	if got := d.ContentionRatio(); got != 0.5 {
		t.Errorf("ContentionRatio = %v, want 0.5", got)
	}
	// 20 acquisitions in 500us = 40k/s.
	if got := d.AcquisitionRate(); got < 39999 || got > 40001 {
		t.Errorf("AcquisitionRate = %v, want ~40000", got)
	}
	// Empty-window guards.
	var zero Delta
	if zero.AvgWait() != 0 || zero.AvgHold() != 0 || zero.AvgIdle() != 0 ||
		zero.ContentionRatio() != 0 || zero.AcquisitionRate() != 0 {
		t.Error("zero Delta averages must all be 0")
	}
	// Regressions clamp rather than go negative.
	d = prev.Delta(cur)
	if d.Acquisitions != 0 || d.WaitTotal != 0 || d.Interval != 0 {
		t.Errorf("reversed delta not clamped: %+v", d)
	}
}

// recordingObserver collects the durations the lock's events carry.
type recordingObserver struct {
	waits, holds, idles []sim.Duration
}

func (r *recordingObserver) LockEvent(e Event) {
	switch {
	case e.Kind == EventAcquire && e.Waited > 0:
		r.waits = append(r.waits, e.Waited)
		r.idles = append(r.idles, e.Idle)
	case e.Kind == EventRelease:
		r.holds = append(r.holds, e.Held)
	}
}

func TestLatencyObserverHooks(t *testing.T) {
	sys := newSys(3)
	l := New(sys, Options{Params: SpinParams()})
	rec := &recordingObserver{}
	l.SetEventSink(rec)
	for i := 0; i < 2; i++ {
		i := i
		sys.Spawn("w", i, 0, func(th *cthread.Thread) {
			for k := 0; k < 3; k++ {
				l.Lock(th)
				th.Compute(sim.Us(200))
				l.Unlock(th)
				th.Compute(sim.Us(50))
			}
		})
	}
	mustRun(t, sys)
	snap := l.MonitorSnapshot()
	if int64(len(rec.waits)) != snap.Contended {
		t.Errorf("observer waits = %d, monitor contended = %d", len(rec.waits), snap.Contended)
	}
	if int64(len(rec.idles)) != snap.IdleSpans {
		t.Errorf("observer idles = %d, monitor idle spans = %d", len(rec.idles), snap.IdleSpans)
	}
	// One hold per release; every acquisition is eventually released here.
	if int64(len(rec.holds)) != snap.Acquisitions {
		t.Errorf("observer holds = %d, monitor acquisitions = %d", len(rec.holds), snap.Acquisitions)
	}
	var wait sim.Duration
	for _, d := range rec.waits {
		wait += d
	}
	if wait != snap.WaitTotal {
		t.Errorf("observer wait sum = %v, monitor WaitTotal = %v", wait, snap.WaitTotal)
	}
}
