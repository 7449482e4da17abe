package adapt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cthread"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTailLatencySwitchesOnWindowedP99NotLifetimeAverage is the core
// demonstration: after a long calm phase, one bad window must flip the
// policy to sleep even though the lifetime mean (and even the lifetime
// p99) still look healthy — a lifetime-average policy would not react.

// observeWait feeds o one contended acquisition that waited d.
func observeWait(o *obs.LockObserver, d sim.Duration) {
	o.LockEvent(core.Event{Kind: core.EventAcquire, Waited: d})
}

func TestTailLatencySwitchesOnWindowedP99NotLifetimeAverage(t *testing.T) {
	o := obs.NewLockObserver()
	p := &TailLatencyHysteresis{
		Obs:           o,
		SleepAboveP99: sim.Us(1000),
		SpinBelowP99:  sim.Us(200),
	}

	// Calm phase: 10k fast waits.
	for i := 0; i < 10000; i++ {
		observeWait(o, sim.Us(10))
	}
	snapCalm := core.Snapshot{Contended: 10000, WaitTotal: 10000 * sim.Us(10)}
	if d := p.Decide(core.Snapshot{}, snapCalm); d.Reconfigure {
		t.Fatalf("priming probe reconfigured: %+v", d)
	}
	if d := p.Decide(snapCalm, snapCalm); d.Reconfigure {
		t.Fatalf("calm window reconfigured: %+v", d)
	}

	// Burst window: 50 slow waits land before the next probe.
	for i := 0; i < 50; i++ {
		observeWait(o, sim.Us(5000))
	}
	snapBurst := core.Snapshot{Contended: 10050, WaitTotal: 10000*sim.Us(10) + 50*sim.Us(5000)}

	// The lifetime statistics still look healthy: the mean is ~35us and
	// the lifetime p99 is still the fast bucket (50 of 10050 samples is
	// under 1%), both far below the 1000us trigger. Only the window sees
	// the burst.
	if lifetimeAvg := snapBurst.AvgWait(); lifetimeAvg >= p.SleepAboveP99 {
		t.Fatalf("test premise broken: lifetime avg %v not below threshold %v", lifetimeAvg, p.SleepAboveP99)
	}
	wait := o.Wait()
	if lifetimeP99 := wait.Quantile(99); lifetimeP99 >= p.SleepAboveP99 {
		t.Fatalf("test premise broken: lifetime p99 %v not below threshold %v", lifetimeP99, p.SleepAboveP99)
	}

	d := p.Decide(snapCalm, snapBurst)
	if !d.Reconfigure || d.Params.Kind() != core.PolicySleep {
		p99, n := p.WindowP99()
		t.Fatalf("decision = %+v (window p99 %v over %d samples), want switch to sleep", d, p99, n)
	}
	if p99, n := p.WindowP99(); n != 50 || p99 < sim.Us(1000) {
		t.Errorf("window p99 = %v over %d samples, want >= 1000us over 50", p99, n)
	}

	// Recovery: fast windows bring the p99 under the spin bound; the
	// policy must switch back exactly once (hysteresis, no flapping).
	for i := 0; i < 100; i++ {
		observeWait(o, sim.Us(10))
	}
	d = p.Decide(snapBurst, snapBurst)
	if !d.Reconfigure || d.Params.Kind() != core.PolicySpin {
		t.Fatalf("recovery decision = %+v, want switch to spin", d)
	}
	for i := 0; i < 100; i++ {
		observeWait(o, sim.Us(10))
	}
	if d = p.Decide(snapBurst, snapBurst); d.Reconfigure {
		t.Fatalf("policy flapped on a steady window: %+v", d)
	}
}

func TestTailLatencyHysteresisBand(t *testing.T) {
	o := obs.NewLockObserver()
	p := &TailLatencyHysteresis{
		Obs:           o,
		SleepAboveP99: sim.Us(1000),
		SpinBelowP99:  sim.Us(200),
	}
	p.Decide(core.Snapshot{}, core.Snapshot{}) // prime
	// A window with p99 inside the band must not reconfigure either way.
	for i := 0; i < 100; i++ {
		observeWait(o, sim.Us(500))
	}
	if d := p.Decide(core.Snapshot{}, core.Snapshot{}); d.Reconfigure {
		t.Fatalf("reconfigured inside the hysteresis band: %+v", d)
	}
}

func TestTailLatencyMinSamples(t *testing.T) {
	o := obs.NewLockObserver()
	p := &TailLatencyHysteresis{
		Obs:           o,
		SleepAboveP99: sim.Us(1000),
		SpinBelowP99:  sim.Us(200),
		MinSamples:    5,
	}
	p.Decide(core.Snapshot{}, core.Snapshot{}) // prime
	// A single outlier is not a trend.
	observeWait(o, sim.Us(100000))
	if d := p.Decide(core.Snapshot{}, core.Snapshot{}); d.Reconfigure {
		t.Fatalf("reconfigured on %d samples with MinSamples=5: %+v", 1, d)
	}
	// Empty windows decide nothing.
	if d := p.Decide(core.Snapshot{}, core.Snapshot{}); d.Reconfigure {
		t.Fatalf("reconfigured on an empty window: %+v", d)
	}
}

// TestTailLatencyAgentEndToEnd runs the policy inside the standard Agent
// loop against a live lock: a calm phase, then a contention burst that
// must trigger a waiting-policy reconfiguration to sleep.
func TestTailLatencyAgentEndToEnd(t *testing.T) {
	sys := newSys(8)
	l := core.New(sys, core.Options{Params: core.SpinParams()})
	o := obs.NewLockObserver()
	l.SetEventSink(o)
	pol := &TailLatencyHysteresis{
		Obs:           o,
		SleepAboveP99: sim.Us(2000),
		SpinBelowP99:  sim.Us(100),
	}
	agent := &Agent{Lock: l, Policy: pol, Interval: sim.Us(2000), MaxProbes: 60}

	// Calm phase: one lone worker, no contention at all.
	sys.Spawn("calm", 0, 0, func(th *cthread.Thread) {
		for k := 0; k < 20; k++ {
			l.Lock(th)
			th.Compute(sim.Us(50))
			l.Unlock(th)
			th.Compute(sim.Us(200))
		}
	})
	// Burst phase: six workers pile on with long critical sections.
	for i := 0; i < 6; i++ {
		i := i
		sys.SpawnAt(sim.Us(8000+float64(20*i)), "burst", 1+i, 0, func(th *cthread.Thread) {
			for k := 0; k < 5; k++ {
				l.Lock(th)
				th.Compute(sim.Us(1500))
				l.Unlock(th)
			}
		})
	}
	sys.Spawn("agent", 7, 0, agent.Run)
	if err := sys.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if agent.Reconfigurations == 0 {
		t.Fatalf("agent made no reconfigurations; errors=%d", agent.Errors)
	}
	snap := l.MonitorSnapshot()
	if snap.ReconfigWaiting == 0 {
		t.Error("monitor saw no waiting-policy reconfiguration")
	}
}
