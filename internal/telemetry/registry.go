// Package telemetry is the live observability surface of the lock
// library: a process-wide registry where named locks — simulated
// core.Lock instances and native.Mutex instances alike — expose their
// monitor counters, latency histograms and contention profiles, plus an
// HTTP server (Serve) that publishes the registry as Prometheus
// /metrics, JSON /locks snapshots, an SSE /watch stream of interval
// windows, /debug/pprof, and folded-stack contention profiles.
//
// The paper's lock object carries a built-in monitor that "an external
// agent" can probe at runtime; this package is that external agent grown
// into a production surface. PR 1's histograms and traces are post-mortem
// artifacts; the registry makes the same data scrapeable while the
// process runs, which is exactly the signal adaptive locks (Mutable
// Locks, Compact NUMA-aware Locks) are built on.
//
// Thread-safety model: native locks are pulled live at scrape time
// (their counters are atomics, their histograms mutex-guarded). The
// simulated machine is a different time domain single-stepped by the
// engine, so simulated locks instead *publish* immutable snapshots from
// simulation context (CoreEntry.Publish); scrapes only ever read the
// last published pointer and never touch live simulation state.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/sim"
)

// LockSnapshot is one registered lock's state at one instant, the unit
// served by /metrics and /locks.
type LockSnapshot struct {
	// Name is the registry name; Impl is "sim" or "native".
	Name string
	Impl string
	// Waiters is the registration-queue length at snapshot time.
	Waiters int
	// Sim carries the monitor snapshot of a simulated lock; Native the
	// stats of a native mutex. Exactly one is non-nil for a live entry.
	Sim    *core.Snapshot
	Native *native.Stats
	// Wait/Hold/Idle are latency histograms, nil when the lock has no
	// latency observation attached (Idle is sim-only).
	Wait *obs.Histogram
	Hold *obs.Histogram
	Idle *obs.Histogram
	// Sites is the per-call-site contention profile (profiled native
	// locks only), hottest site first.
	Sites []Site
	// Extra carries implementation-specific scalar series from sources
	// registered with RegisterSource (e.g. the lockd server's session,
	// lease and shed counters); they are exported alongside the standard
	// lock families.
	Extra []ExtraPoint
}

// ExtraPoint is one source-defined scalar metric series.
type ExtraPoint struct {
	// Name is the full metric family name (e.g. "lockd_sessions");
	// Help its HELP text; Gauge selects the gauge type (counter
	// otherwise).
	Name  string `json:"name"`
	Help  string `json:"help"`
	Gauge bool   `json:"gauge,omitempty"`
	Value int64  `json:"value"`
	// Labels are appended after the standard {impl,lock} pair, so one
	// source can export a family with several series (e.g. per-peer
	// clock skew keyed by a "peer" label).
	Labels []Label `json:"labels,omitempty"`
}

// Registry is a set of named lock telemetry entries. The zero value is
// not ready; use NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*Entry

	// graph/flight are the causal surfaces served by /debug/waitgraph and
	// /debug/flightrec (see causal.go); nil falls back to the causal
	// package defaults.
	graph  *causal.Graph
	flight *causal.Flight

	// journal is the event journal served by /debug/journal (see
	// journal.go); nil means the endpoints report 404.
	journal *journal.Journal
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// Default is the process-wide registry used by the package-level
// Register functions and Serve.
var Default = NewRegistry()

// Entry is one registered lock. It is embedded by CoreEntry and
// NativeEntry, which add the implementation-specific halves.
type Entry struct {
	reg  *Registry
	name string
	impl string

	// Simulated locks publish snapshots (see the package comment);
	// native locks install pull and are sampled at scrape time.
	published atomic.Pointer[LockSnapshot]
	pull      func() LockSnapshot
}

// Name returns the registered name (uniquified if the requested name was
// taken).
func (e *Entry) Name() string { return e.name }

// Impl returns "sim" or "native".
func (e *Entry) Impl() string { return e.impl }

// Close unregisters the entry. Idempotent; a closed entry's lock keeps
// working, it just stops being exported.
func (e *Entry) Close() {
	e.reg.mu.Lock()
	if e.reg.entries[e.name] == e {
		delete(e.reg.entries, e.name)
	}
	e.reg.mu.Unlock()
}

// Snapshot returns the entry's current state (for native entries a live
// pull; for sim entries the last published snapshot).
func (e *Entry) Snapshot() LockSnapshot { return e.snapshot() }

// snapshot returns the entry's current state.
func (e *Entry) snapshot() LockSnapshot {
	if e.pull != nil {
		return e.pull()
	}
	if s := e.published.Load(); s != nil {
		return *s
	}
	return LockSnapshot{Name: e.name, Impl: e.impl}
}

// add registers a new entry, uniquifying the name ("x", "x#2", "x#3"...)
// so two anonymous scenarios never collide. A non-nil init runs under
// the registry lock before the entry becomes visible to scrapes: a
// wrapper whose pull function reads wrapper state must attach the entry
// there, or a concurrent scrape could sample the half-built wrapper.
func (r *Registry) add(name, impl string, pull func() LockSnapshot, init func(*Entry)) *Entry {
	if name == "" {
		name = impl + "-lock"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := name
	for i := 2; ; i++ {
		if _, taken := r.entries[name]; !taken {
			break
		}
		name = fmt.Sprintf("%s#%d", base, i)
	}
	e := &Entry{reg: r, name: name, impl: impl, pull: pull}
	if init != nil {
		init(e)
	}
	r.entries[name] = e
	return e
}

// Len returns the number of registered locks.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Snapshots returns the current state of every registered lock, sorted
// by name. Entries are sampled outside the registry lock, so a slow
// scrape never blocks registration.
func (r *Registry) Snapshots() []LockSnapshot {
	r.mu.Lock()
	es := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	out := make([]LockSnapshot, 0, len(es))
	for _, e := range es {
		out = append(out, e.snapshot())
	}
	return out
}

// RegisterSource registers a custom telemetry source: pull is invoked at
// every scrape and returns the snapshot to export. Sources use the Extra
// points for their scalar series (the standard lock families stay absent
// unless the source fills Sim/Native). The lockd server registers itself
// this way.
func (r *Registry) RegisterSource(name, impl string, pull func() LockSnapshot) *Entry {
	if pull == nil {
		panic("telemetry: RegisterSource with nil pull")
	}
	return r.add(name, impl, pull, nil)
}

// RegisterSource registers a custom source in the default registry.
func RegisterSource(name, impl string, pull func() LockSnapshot) *Entry {
	return Default.RegisterSource(name, impl, pull)
}

// CoreEntry is a registered simulated lock. Publish pushes fresh
// snapshots from simulation context; scrapes read the last one.
type CoreEntry struct {
	*Entry
	lock *core.Lock
	obs  *obs.LockObserver
}

// RegisterCore registers a simulated lock (and, optionally, its latency
// observer) under name. The entry is empty until the first Publish.
func (r *Registry) RegisterCore(name string, l *core.Lock, o *obs.LockObserver) *CoreEntry {
	ce := &CoreEntry{lock: l, obs: o}
	ce.Entry = r.add(name, "sim", nil, nil)
	return ce
}

// Publish snapshots the lock's monitor (and observer histograms, when
// attached) and makes them visible to scrapes. Call from simulation
// context — engine callbacks, sampler windows, end of run.
func (ce *CoreEntry) Publish() {
	snap := ce.lock.MonitorSnapshot()
	ls := LockSnapshot{Name: ce.name, Impl: "sim", Sim: &snap, Waiters: snap.Waiters}
	if ce.obs != nil {
		w, h, i := ce.obs.Wait(), ce.obs.Hold(), ce.obs.Idle()
		ls.Wait, ls.Hold, ls.Idle = &w, &h, &i
	}
	ce.published.Store(&ls)
}

// NativeEntry is a registered native mutex, pulled live at scrape time.
type NativeEntry struct {
	*Entry
	m     *native.Mutex
	hists atomic.Pointer[lockedHists]
	prof  atomic.Pointer[SiteProfiler]
}

// RegisterNative registers a native mutex under name. Stats counters are
// exported immediately; chain ObserveLatency and Profile for histograms
// and per-site contention profiles.
func (r *Registry) RegisterNative(name string, m *native.Mutex) *NativeEntry {
	ne := &NativeEntry{m: m}
	r.add(name, "native", ne.sample, func(e *Entry) { ne.Entry = e })
	return ne
}

// RegisterNative registers a native mutex in the default registry.
func RegisterNative(name string, m *native.Mutex) *NativeEntry {
	return Default.RegisterNative(name, m)
}

// ObserveLatency keeps wait and hold histograms for the mutex, so
// scrapes serve latency distributions rather than just the Stats
// totals. Like Profile, it attaches the entry as the mutex's event
// sink; to keep another sink (a journal) as well, attach
// native.TeeSink(ne, other) afterwards. Returns the entry for chaining.
func (ne *NativeEntry) ObserveLatency() *NativeEntry {
	ne.hists.Store(&lockedHists{})
	ne.m.SetEventSink(ne)
	return ne
}

// Profile keeps a contention call-site profile sampling one in rate
// contended acquisitions (rate <= 1 samples all), and attaches the
// entry as the mutex's event sink (see ObserveLatency). Returns the
// entry for chaining.
func (ne *NativeEntry) Profile(rate int) *NativeEntry {
	ne.prof.Store(NewSiteProfiler(rate))
	ne.m.SetEventSink(ne)
	return ne
}

// LockEvent implements native.EventSink: a contended grant feeds the
// wait histogram and the site profiler, a release the hold histogram.
// The profiler samples the caller's stack here, on the acquiring
// goroutine, before its critical section runs.
func (ne *NativeEntry) LockEvent(e native.LockEvent) {
	switch e.Kind {
	case native.EventAcquire:
		if e.Waited <= 0 {
			return // uncontended
		}
		if h := ne.hists.Load(); h != nil {
			h.observe(&h.wait, e.Waited)
		}
		if p := ne.prof.Load(); p != nil {
			p.record(e.Waited)
		}
	case native.EventRelease:
		if h := ne.hists.Load(); h != nil {
			h.observe(&h.hold, e.Held)
		}
	}
}

// Profiler returns the attached contention profiler, nil before Profile.
func (ne *NativeEntry) Profiler() *SiteProfiler { return ne.prof.Load() }

// sample pulls the mutex's live state.
func (ne *NativeEntry) sample() LockSnapshot {
	st := ne.m.Stats()
	ls := LockSnapshot{Name: ne.name, Impl: "native", Native: &st, Waiters: ne.m.Waiters()}
	if h := ne.hists.Load(); h != nil {
		w, hd := h.snapshot()
		ls.Wait, ls.Hold = &w, &hd
	}
	if p := ne.prof.Load(); p != nil {
		ls.Sites = p.Top(0)
	}
	return ls
}

// lockedHists adapts obs.Histogram (single-writer by design, built for
// the simulator) to the native mutex's concurrent hot paths.
type lockedHists struct {
	mu   sync.Mutex
	wait obs.Histogram
	hold obs.Histogram
}

func (h *lockedHists) observe(into *obs.Histogram, d time.Duration) {
	h.mu.Lock()
	into.Record(sim.Duration(d))
	h.mu.Unlock()
}

func (h *lockedHists) snapshot() (wait, hold obs.Histogram) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.wait, h.hold
}
