// Package scenario provides the shared contended-lock scenario plumbing
// behind the locktrace and lockstat commands: n workers hammering one
// reconfigurable lock on the simulated GP1000, with optional tracing,
// latency observation, windowed sampling, and a mid-run reconfiguration
// agent.
package scenario

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/cthread"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ParsePolicy maps a command-line policy name to waiting-policy Params.
func ParsePolicy(name string) (core.Params, bool) {
	p, ok := map[string]core.Params{
		"spin":     core.SpinParams(),
		"backoff":  core.BackoffParams(sim.Us(50)),
		"sleep":    core.SleepParams(),
		"combined": core.CombinedParams(10),
	}[name]
	return p, ok
}

// ParseScheduler maps a command-line scheduler name to its kind.
func ParseScheduler(name string) (core.SchedulerKind, bool) {
	k, ok := map[string]core.SchedulerKind{
		"fcfs":           core.FCFS,
		"priority":       core.PriorityThreshold,
		"priority-queue": core.PriorityQueue,
		"handoff":        core.Handoff,
		"deadline":       core.Deadline,
	}[name]
	return k, ok
}

// PolicyNames / SchedulerNames document the accepted flag values.
const (
	PolicyNames    = "spin|backoff|sleep|combined"
	SchedulerNames = "fcfs|priority|priority-queue|handoff|deadline"
)

// Config describes one scenario run.
type Config struct {
	// Workers is the number of contending threads.
	Workers int
	// Iters is the number of lock/compute/unlock rounds per worker.
	Iters int
	// Params / Scheduler configure the lock.
	Params    core.Params
	Scheduler core.SchedulerKind
	// CS is the critical-section length; Think the gap between rounds.
	CS    sim.Duration
	Think sim.Duration
	// TraceEvents, when positive, attaches a trace ring of that capacity.
	TraceEvents int
	// Observe attaches an obs.LockObserver for latency histograms.
	Observe bool
	// SampleEvery, when positive, runs an obs.Sampler agent on its own
	// processor with this probe period.
	SampleEvery sim.Duration
	// Agent spawns the mid-run reconfiguration agent (switch the waiting
	// policy to sleep at AgentAt, default 800us) to show Ψ in the
	// timeline.
	Agent   bool
	AgentAt sim.Time
	// OnAgentError receives reconfiguration failures from the agent
	// (nil: errors are counted in Result.AgentErrors only).
	OnAgentError func(error)

	// Faults, when non-empty, builds a deterministic fault schedule
	// seeded with FaultSeed and injects it: stall/release-delay/preempt
	// faults hook into the lock itself; crash faults make a worker exit
	// while holding the lock; agent-death faults make the mid-run agent
	// exit while possessing the waiting-policy attribute.
	Faults    []fault.Spec
	FaultSeed int64
	// HoldDeadline arms the lock's watchdog. Zero leaves it off — unless
	// a crash fault is scheduled, in which case it defaults to 4×CS so
	// the dead owner is recovered instead of deadlocking the run.
	HoldDeadline sim.Duration
	// Degrade spawns an adapt.DegradeAgent that reacts to watchdog trips
	// by reconfiguring the lock to SafeParams (zero: sleep).
	Degrade    bool
	SafeParams core.Params

	// RegisterAs, when non-empty, registers the lock in the telemetry
	// registry under that name; snapshots are published at run start, at
	// every sampler window (with SampleEvery), and at run end, so a
	// concurrent telemetry server can scrape the run live. Registry
	// overrides telemetry.Default (tests).
	RegisterAs string
	Registry   *telemetry.Registry

	// Causal attaches a causal tracker to the lock: acquisition
	// lifecycle spans into a fresh Recorder (Result.CausalRec), wait-for
	// edges into a fresh Graph (Result.CausalGraph), and flight events
	// into causal.DefaultFlight. lockstat -critical-path feeds the
	// recorded spans to causal.AnalyzeCriticalPath.
	Causal bool
}

// Result is what a scenario run produces.
type Result struct {
	Lock     *core.Lock
	Tracer   *trace.Tracer     // nil unless TraceEvents > 0
	Observer *obs.LockObserver // nil unless Observe
	Sampler  *obs.Sampler      // nil unless SampleEvery > 0
	Snapshot core.Snapshot     // monitor state at end of run
	// AgentErrors counts failed possess/configure attempts by the mid-run
	// agent.
	AgentErrors int

	// Faults is the injected schedule (nil without faults); its Counts()
	// reports per-kind opportunities and firings.
	Faults *fault.Schedule
	// DegradeAgent is the watchdog-reactive agent (nil unless Degrade).
	DegradeAgent *adapt.DegradeAgent
	// Crashes counts workers that exited while holding the lock;
	// AgentDied reports the mid-run agent exiting while possessing the
	// attribute; OwnerDiedSeen counts acquirers that inherited the lock
	// from a dead owner.
	Crashes       int
	AgentDied     bool
	OwnerDiedSeen int

	// Telemetry is the registry entry (nil unless RegisterAs or Registry
	// was set). It stays registered after Run returns so a -serve CLI can
	// keep exporting it; callers that want it gone call Close.
	Telemetry *telemetry.CoreEntry

	// CausalRec / CausalGraph hold the run's causal spans and wait-for
	// graph (nil unless Causal).
	CausalRec   *causal.Recorder
	CausalGraph *causal.Graph
}

// Run executes the scenario to completion of all spawned threads.
func Run(cfg Config) (*Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	if cfg.CS <= 0 {
		cfg.CS = sim.Us(300)
	}
	if cfg.Think <= 0 {
		cfg.Think = sim.Us(100)
	}
	if cfg.Params == (core.Params{}) {
		cfg.Params = core.CombinedParams(10)
	}
	if cfg.AgentAt <= 0 {
		cfg.AgentAt = sim.Time(sim.Us(800))
	}

	mcfg := machine.DefaultGP1000()
	procs := cfg.Workers
	if cfg.Agent {
		procs++
	}
	if cfg.Degrade {
		procs++
	}
	if cfg.SampleEvery > 0 {
		procs++
	}
	if procs > mcfg.Procs {
		mcfg.Procs = procs
	}
	sys := cthread.NewSystem(machine.New(mcfg))
	lock := core.New(sys, core.Options{Params: cfg.Params, Scheduler: cfg.Scheduler})

	res := &Result{Lock: lock}
	var sched *fault.Schedule
	if len(cfg.Faults) > 0 {
		var err error
		sched, err = fault.NewSchedule(cfg.FaultSeed, cfg.Faults...)
		if err != nil {
			return nil, err
		}
		lock.SetFaultInjector(fault.SimInjector{Schedule: sched})
		res.Faults = sched
		if cfg.HoldDeadline <= 0 {
			for _, sp := range cfg.Faults {
				if sp.Kind == fault.OwnerCrash {
					// A crashed owner deadlocks the run without a
					// watchdog to recover it.
					cfg.HoldDeadline = 4 * cfg.CS
					break
				}
			}
		}
	}
	if cfg.HoldDeadline > 0 {
		lock.SetHoldDeadline(cfg.HoldDeadline)
	}
	var sinks []core.EventSink
	if cfg.TraceEvents > 0 {
		res.Tracer = trace.New(cfg.TraceEvents)
		sinks = append(sinks, res.Tracer.Sink("lock"))
	}
	if cfg.Causal {
		object := cfg.RegisterAs
		if object == "" {
			object = "lock"
		}
		res.CausalRec = causal.NewRecorder(8192)
		res.CausalGraph = causal.NewGraph()
		sinks = append(sinks, &causal.SimTracker{
			Object: object,
			Rec:    res.CausalRec,
			Graph:  res.CausalGraph,
			Flight: causal.DefaultFlight,
		})
	}
	if cfg.Observe || cfg.SampleEvery > 0 {
		res.Observer = obs.NewLockObserver()
		sinks = append(sinks, res.Observer)
	}
	lock.SetEventSink(core.TeeSink(sinks...))
	if cfg.RegisterAs != "" || cfg.Registry != nil {
		reg := cfg.Registry
		if reg == nil {
			reg = telemetry.Default
		}
		name := cfg.RegisterAs
		if name == "" {
			name = "scenario"
		}
		res.Telemetry = reg.RegisterCore(name, lock, res.Observer)
		res.Telemetry.Publish()
	}

	kind := cfg.Scheduler
	for i := 0; i < cfg.Workers; i++ {
		i := i
		name := fmt.Sprintf("worker-%d", i)
		sys.SpawnAt(sim.Us(float64(50*i)), name, i, int64(i), func(t *cthread.Thread) {
			for k := 0; k < cfg.Iters; k++ {
				if kind == core.Deadline {
					lock.LockDeadline(t, t.Now()+sim.Time(sim.Us(1000*float64(cfg.Workers-i))))
				} else {
					lock.Lock(t)
				}
				if lock.ConsumeOwnerDied(t) {
					res.OwnerDiedSeen++
				}
				t.Compute(cfg.CS)
				if sched != nil {
					if _, ok := sched.Draw(fault.OwnerCrash); ok {
						// Crash while holding: exit without unlocking.
						// The watchdog finds the dead owner and
						// force-releases on its behalf.
						res.Crashes++
						return
					}
				}
				lock.Unlock(t)
				t.Compute(cfg.Think)
			}
		})
	}

	cpu := cfg.Workers
	if cfg.Agent {
		// Mid-run reconfiguration by an external agent, to show Ψ in the
		// timeline.
		sys.SpawnAt(sim.Duration(cfg.AgentAt), "agent", cpu, 0, func(t *cthread.Thread) {
			fail := func(err error) {
				res.AgentErrors++
				if cfg.OnAgentError != nil {
					cfg.OnAgentError(err)
				}
			}
			if err := lock.Possess(t, core.AttrWaitingPolicy); err != nil {
				fail(fmt.Errorf("possess waiting-policy: %w", err))
				return
			}
			if sched != nil {
				if _, ok := sched.Draw(fault.AgentDeath); ok {
					// Die while possessing the attribute, before the
					// reconfiguration: possession stays wedged until a
					// later agent steals it from the dead thread.
					res.AgentDied = true
					return
				}
			}
			if err := lock.ConfigureWaiting(t, core.SleepParams()); err != nil {
				fail(fmt.Errorf("configure waiting-policy: %w", err))
			}
		})
		cpu++
	}
	if cfg.Degrade {
		res.DegradeAgent = &adapt.DegradeAgent{Lock: lock, Safe: cfg.SafeParams}
		sys.Spawn("degrade", cpu, 0, res.DegradeAgent.Run)
		cpu++
	}
	if cfg.SampleEvery > 0 {
		// Bound the sampler's lifetime generously; it also stops itself
		// once every worker has finished.
		res.Sampler = &obs.Sampler{
			Lock:       lock,
			Obs:        res.Observer,
			Every:      cfg.SampleEvery,
			Keep:       1024,
			MaxWindows: 100000,
		}
		smp := res.Sampler
		done := func() bool {
			for _, th := range sys.Threads() {
				switch th.Name() {
				case "sampler", "degrade":
					// The degrade agent blocks forever waiting for
					// watchdog trips; waiting for it would keep the
					// sampler — and so the simulation — alive forever.
					continue
				}
				if th.State() != cthread.Done {
					return false
				}
			}
			return true
		}
		sys.Spawn("sampler", cpu, 0, func(t *cthread.Thread) {
			for !done() {
				t.Sleep(cfg.SampleEvery)
				smp.Sample()
				if res.Telemetry != nil {
					// Each probe window doubles as a telemetry publish, so
					// a live scrape of a long simulation advances at the
					// sampling cadence.
					res.Telemetry.Publish()
				}
			}
		})
	}

	if err := sys.M.Eng.Run(); err != nil {
		return res, err
	}
	res.Snapshot = lock.MonitorSnapshot()
	if res.Telemetry != nil {
		res.Telemetry.Publish()
	}
	return res, nil
}
