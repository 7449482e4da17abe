package obs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cthread"
	"repro/internal/machine"
	"repro/internal/sim"
)

func newSys(procs int) *cthread.System {
	cfg := machine.DefaultGP1000()
	cfg.Procs = procs
	return cthread.NewSystem(machine.New(cfg))
}

// runContended drives workers rounds of lock/compute/unlock each on their
// own processor, with the observer attached and the sampler running as an
// agent thread on the last processor.
func runContended(t *testing.T, workers, rounds int, every sim.Duration, maxWindows int) (*LockObserver, *Sampler, *core.Lock) {
	t.Helper()
	sys := newSys(workers + 1)
	l := core.New(sys, core.Options{Params: core.CombinedParams(10)})
	o := NewLockObserver()
	l.SetEventSink(o)
	smp := &Sampler{Lock: l, Obs: o, Every: every, MaxWindows: maxWindows, Keep: maxWindows}
	for i := 0; i < workers; i++ {
		i := i
		// Workers start after the sampler's priming probe (t ~= 0), so
		// every acquisition falls inside some window.
		sys.SpawnAt(sim.Us(float64(50+10*i)), "w", i, 0, func(th *cthread.Thread) {
			for k := 0; k < rounds; k++ {
				l.Lock(th)
				th.Compute(sim.Us(200))
				l.Unlock(th)
				th.Compute(sim.Us(50))
			}
		})
	}
	sys.Spawn("sampler", workers, 0, smp.Run)
	if err := sys.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return o, smp, l
}

func TestObserverMatchesMonitor(t *testing.T) {
	o, _, l := runContended(t, 3, 4, sim.Us(500), 40)
	snap := l.MonitorSnapshot()
	if got := o.Wait().Count(); got != snap.Contended {
		t.Errorf("wait count = %d, monitor contended = %d", got, snap.Contended)
	}
	if got := o.Hold().Count(); got != snap.Acquisitions {
		t.Errorf("hold count = %d, monitor acquisitions = %d", got, snap.Acquisitions)
	}
	if got := o.Idle().Count(); got != snap.IdleSpans {
		t.Errorf("idle count = %d, monitor idle spans = %d", got, snap.IdleSpans)
	}
	if got, want := o.Wait().Sum(), snap.WaitTotal; got != want {
		t.Errorf("wait sum = %v, monitor WaitTotal = %v", got, want)
	}
	if o.Hold().Quantile(50) <= 0 {
		t.Error("hold p50 = 0 after contended run")
	}
}

func TestSamplerWindowsPartitionTheRun(t *testing.T) {
	_, smp, l := runContended(t, 3, 4, sim.Us(500), 40)
	ws := smp.Windows()
	if len(ws) == 0 {
		t.Fatal("no windows collected")
	}
	var acq, contended int64
	var waitN int64
	for i, w := range ws {
		if w.Delta.Interval <= 0 {
			t.Errorf("window %d has non-positive interval %v", i, w.Delta.Interval)
		}
		if i > 0 && ws[i-1].Delta.End != w.Delta.Start {
			t.Errorf("window %d not contiguous: prev end %v, start %v", i, ws[i-1].Delta.End, w.Delta.Start)
		}
		acq += w.Delta.Acquisitions
		contended += w.Delta.Contended
		// Note: per-window, Delta.Contended counts registrations while the
		// wait histogram records at grant time, so only the totals match.
		waitN += w.Wait.Count()
	}
	snap := l.MonitorSnapshot()
	// The sampler keeps probing until MaxWindows, so the windows cover the
	// whole run: per-window deltas must sum back to the lifetime totals.
	if acq != snap.Acquisitions {
		t.Errorf("windowed acquisitions sum = %d, lifetime = %d", acq, snap.Acquisitions)
	}
	if contended != snap.Contended || waitN != snap.Contended {
		t.Errorf("windowed contended sum = %d (hist %d), lifetime = %d", contended, waitN, snap.Contended)
	}
	if last, ok := smp.Last(); !ok || last.Delta.End != ws[len(ws)-1].Delta.End {
		t.Error("Last() does not return the newest window")
	}
}

func TestSamplerRingDiscardsOldWindows(t *testing.T) {
	sys := newSys(2)
	l := core.New(sys, core.Options{Params: core.SpinParams()})
	smp := &Sampler{Lock: l, Keep: 3}
	sys.Spawn("w", 0, 0, func(th *cthread.Thread) {
		for k := 0; k < 10; k++ {
			l.Lock(th)
			th.Compute(sim.Us(100))
			l.Unlock(th)
			smp.Sample()
		}
	})
	if err := sys.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	ws := smp.Windows()
	if len(ws) != 3 {
		t.Fatalf("retained %d windows, want 3", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i-1].Delta.End != ws[i].Delta.Start {
			t.Errorf("retained windows not contiguous at %d", i)
		}
	}
	// 10 samples: 1 primes, 9 windows, the last 3 retained; together they
	// must hold the 3 newest acquisitions.
	var acq int64
	for _, w := range ws {
		acq += w.Delta.Acquisitions
	}
	if acq != 3 {
		t.Errorf("retained windows hold %d acquisitions, want 3", acq)
	}
}

func TestSamplerOnWindowCallback(t *testing.T) {
	sys := newSys(2)
	l := core.New(sys, core.Options{Params: core.SpinParams()})
	var calls int
	smp := &Sampler{Lock: l, OnWindow: func(Window) { calls++ }}
	sys.Spawn("w", 0, 0, func(th *cthread.Thread) {
		smp.Sample() // primes, no window
		l.Lock(th)
		th.Compute(sim.Us(50))
		l.Unlock(th)
		smp.Sample()
		smp.Sample()
	})
	if err := sys.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("OnWindow called %d times, want 2", calls)
	}
}

// winTag fabricates a window identifiable by its acquisition count, and
// tags reads the counts back out.
func winTag(n int64) Window {
	return Window{Delta: core.Delta{Acquisitions: n}}
}

func tags(ws []Window) []int64 {
	out := make([]int64, len(ws))
	for i, w := range ws {
		out[i] = w.Delta.Acquisitions
	}
	return out
}

// TestSamplerRetainKeepShrinksMidRun is the regression test for the ring
// clamp: shrinking Keep after the ring has wrapped used to trim a
// physical suffix of the ring, interleaving old and new windows so
// Windows() came back out of chronological order.
func TestSamplerRetainKeepShrinksMidRun(t *testing.T) {
	s := &Sampler{Keep: 4}
	// Fill and wrap mid-cycle: after 7 windows the ring holds 4..7 with
	// the write cursor inside the ring, so the physical order is not
	// chronological.
	for i := int64(1); i <= 7; i++ {
		s.retain(winTag(i))
	}
	if got := tags(s.Windows()); len(got) != 4 || got[0] != 4 || got[3] != 7 {
		t.Fatalf("pre-shrink windows = %v, want [4 5 6 7]", got)
	}
	// Shrink mid-run and add one more.
	s.Keep = 3
	s.retain(winTag(8))
	got := tags(s.Windows())
	want := []int64{6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("post-shrink windows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-shrink windows = %v, want %v (chronological)", got, want)
		}
	}
	if last, ok := s.Last(); !ok || last.Delta.Acquisitions != 8 {
		t.Fatalf("Last = %+v/%v, want window 8", last, ok)
	}
	// Keep shrunk ring behavior consistent on further writes.
	s.retain(winTag(9))
	if got := tags(s.Windows()); got[0] != 7 || got[2] != 9 {
		t.Fatalf("steady-state windows = %v, want [7 8 9]", got)
	}
}

// TestSamplerRetainKeepGrowsMidRun covers the dual: growing Keep on a
// wrapped ring must not append new windows after physically-older slots.
func TestSamplerRetainKeepGrowsMidRun(t *testing.T) {
	s := &Sampler{Keep: 3}
	for i := int64(1); i <= 5; i++ {
		s.retain(winTag(i)) // wrapped ring now holds 3,4,5
	}
	s.Keep = 5
	s.retain(winTag(6))
	s.retain(winTag(7))
	got := tags(s.Windows())
	want := []int64{3, 4, 5, 6, 7}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("post-grow windows = %v, want %v", got, want)
		}
	}
	if last, ok := s.Last(); !ok || last.Delta.Acquisitions != 7 {
		t.Fatalf("Last = %+v/%v, want window 7", last, ok)
	}
}
