package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/native"
)

// inprocSystem is the in-process workload: 64 native.Mutex (Combined
// policy, FIFO scheduler), each with a journal sink attached, driven
// directly by the callers. Only native and journal do work here.
type inprocSystem struct {
	locks []*native.Mutex
	jrnl  *journal.Journal
	cs    []caller

	// Traced mode: the sink meter and its per-caller probes.
	probes   []*sinkProbe
	selfNs   []*reservoir
	j0, j1   journal.Stats
	n0, n1   native.Stats
	syncMode bool
}

func setupInproc(env *runEnv, m mode, seqs [][]uint16) (system, error) {
	s := &inprocSystem{}
	if m == modeSync {
		// The platform mutex on the identical sequence: the base of
		// native.vs_sync_ratio.
		locks := make(syncLocks, inprocLocks)
		for range seqs {
			s.cs = append(s.cs, locks)
		}
		s.syncMode = true
		return s, nil
	}
	if m != modeHooksOff {
		j, err := journal.Open(journal.Config{Dir: env.dir("inproc-journal")})
		if err != nil {
			return nil, err
		}
		s.jrnl = j
	}
	if m == modeTraced {
		for c := range seqs {
			s.probes = append(s.probes, &sinkProbe{calls: newReservoir(reservoirCap, uint64(c)+7)})
			s.selfNs = append(s.selfNs, newReservoir(reservoirCap, uint64(c)+9))
		}
	}
	for i := 0; i < inprocLocks; i++ {
		mu, err := native.New(native.CombinedPolicy, native.FIFO)
		if err != nil {
			s.close()
			return nil, err
		}
		if s.jrnl != nil {
			var sink native.EventSink = s.jrnl.Sink(fmt.Sprintf("lock-%02d", i))
			if s.probes != nil {
				sink = &sinkMeter{inner: sink, probes: s.probes}
			}
			mu.SetEventSink(sink)
		}
		s.locks = append(s.locks, mu)
	}
	for c := range seqs {
		nc := &nativeCaller{locks: s.locks, tag: uint64(c) + 1}
		if s.probes != nil {
			s.cs = append(s.cs, &tracedNativeCaller{nativeCaller: nc, probe: s.probes[c], self: s.selfNs[c]})
		} else {
			s.cs = append(s.cs, nc)
		}
	}
	return s, nil
}

// inprocLocks is the in-process workload's lock count.
const inprocLocks = 64

func (s *inprocSystem) callers() []caller { return s.cs }

func (s *inprocSystem) markStart() {
	s.j0, s.n0 = s.jrnl.Stats(), s.nativeStats()
	for _, p := range s.probes {
		p.measuring.Store(true)
	}
}

func (s *inprocSystem) markEnd() {
	for _, p := range s.probes {
		p.measuring.Store(false)
	}
	s.j1, s.n1 = s.jrnl.Stats(), s.nativeStats()
}

// nativeStats sums the monitor counters of every lock.
func (s *inprocSystem) nativeStats() native.Stats {
	var t native.Stats
	for _, m := range s.locks {
		st := m.Stats()
		t.Acquisitions += st.Acquisitions
		t.Contended += st.Contended
		t.WaitNanos += st.WaitNanos
	}
	return t
}

func (s *inprocSystem) check(lr *loopResult) []string {
	if s.syncMode {
		return nil
	}
	// Every grant the callers saw is one acquisition in the monitor.
	var acq int64
	for _, m := range s.locks {
		acq += m.Stats().Acquisitions
	}
	if acq != lr.grants {
		return []string{fmt.Sprintf("native monitor counted %d acquisitions, callers saw %d grants", acq, lr.grants)}
	}
	return nil
}

func (s *inprocSystem) layers(lr *loopResult) map[string]float64 {
	ops := float64(lr.ops)
	acq := float64(s.n1.Acquisitions - s.n0.Acquisitions)
	cont := float64(s.n1.Contended - s.n0.Contended)
	var calls, self []*reservoir
	for i, p := range s.probes {
		calls = append(calls, p.calls)
		self = append(self, s.selfNs[i])
	}
	selfP50, _ := merge(self...).quantile(0.5)
	sinkP50, _ := merge(calls...).quantile(0.5)
	appended := float64(s.j1.Appended - s.j0.Appended)
	dropped := float64(s.j1.Dropped - s.j0.Dropped)
	return map[string]float64{
		"native.self_p50_ns":           selfP50,
		"native.contended_ratio":       ratio(cont, acq),
		"native.wait_ns_per_contended": ratio(float64(s.n1.WaitNanos-s.n0.WaitNanos), cont),
		"journal.sink_p50_ns":          sinkP50,
		"journal.records_per_op":       ratio(appended, ops),
		"journal.drop_ratio":           ratio(dropped, appended+dropped),
	}
}

func (s *inprocSystem) close() {
	if s.jrnl != nil {
		s.jrnl.Close()
	}
}

type nativeCaller struct {
	locks []*native.Mutex
	tag   uint64
}

func (c *nativeCaller) acquire(lock int) (uint64, error) {
	c.locks[lock].LockAs(c.tag, 0)
	return 0, nil
}

func (c *nativeCaller) release(lock int, _ uint64) error {
	c.locks[lock].Unlock()
	return nil
}

// syncLocks is the platform mutex as a caller; the callers share it.
type syncLocks []sync.Mutex

func (l syncLocks) acquire(lock int) (uint64, error) {
	l[lock].Lock()
	return 0, nil
}

func (l syncLocks) release(lock int, _ uint64) error {
	l[lock].Unlock()
	return nil
}

// sinkProbe is one caller's view of the journal sink: the time spent
// inside it since the caller's current acquire began, and a sample of
// every call's cost inside the window. Apart from measuring, only the
// caller's own goroutine touches it — native delivers every event
// carrying a tag on the goroutine that acquired or released under it.
type sinkProbe struct {
	measuring atomic.Bool
	spent     time.Duration
	calls     *reservoir
}

// sinkMeter wraps the journal sink of one lock and, inside the window,
// times every call into it.
type sinkMeter struct {
	inner  native.EventSink
	probes []*sinkProbe // indexed by tag-1
}

func (m *sinkMeter) LockEvent(e native.LockEvent) {
	i := int(e.Tag) - 1
	if i < 0 || i >= len(m.probes) || !m.probes[i].measuring.Load() {
		m.inner.LockEvent(e)
		return
	}
	p := m.probes[i]
	t := time.Now()
	m.inner.LockEvent(e)
	d := time.Since(t)
	p.spent += d
	p.calls.add(int64(d))
}

// tracedNativeCaller times the sink calls made during a sampled acquire
// so the acquire's native self time excludes them.
type tracedNativeCaller struct {
	*nativeCaller
	probe *sinkProbe
	self  *reservoir
}

func (c *tracedNativeCaller) acquire(lock int) (uint64, error) {
	c.probe.spent = 0
	c.locks[lock].LockAs(c.tag, 0)
	return 0, nil
}

func (c *tracedNativeCaller) timedAcquire(d time.Duration) {
	c.self.add(int64(d - c.probe.spent))
}
