package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/causal"
	"repro/internal/hlc"
	"repro/internal/journal"
	"repro/internal/lockclient"
	"repro/internal/lockd"
	"repro/internal/replica"
	"repro/internal/telemetry"
)

// netSystem is a lockd service — standalone or a 3-node replicated
// cluster, all in this process over loopback TCP — and one lockclient
// session per caller.
type netSystem struct {
	names   []string
	servers []*lockd.Server
	nodes   []*replica.Node
	jrnls   []*journal.Journal
	dirs    []string
	clients []*lockclient.Client
	cs      []caller
	rec     *causal.Recorder
	probe   *netProbe // nil untraced
	cluster bool

	// Window-edge snapshots for the per-layer metrics.
	c0, c1     lockd.Counters
	cl0, cl1   lockclient.Stats
	j0, j1     journal.Stats
	tr0, tr1   int
	spans0     int64
	spans1     int64
	dropped1   int64
	pc0, pc1   probeCounts
	lagEntries int
}

// leaderLease is the cluster's leader lease: cmd/lockd's default.
const leaderLease = time.Second

func setupLockd(env *runEnv, m mode, seqs [][]uint16) (system, error) {
	return setupNet(env, m, seqs, hotLocks, 1)
}

func setupCluster(env *runEnv, m mode, seqs [][]uint16) (system, error) {
	return setupNet(env, m, seqs, spreadLocks, 3)
}

// Lock counts of the two network workloads.
const (
	hotLocks    = 4
	spreadLocks = 1024
)

func setupNet(env *runEnv, m mode, seqs [][]uint16, locks, size int) (sys system, err error) {
	s := &netSystem{rec: causal.NewRecorder(8192)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for i := 0; i < locks; i++ {
		s.names = append(s.names, fmt.Sprintf("lock-%04d", i))
	}
	wall := func() int64 { return time.Now().UnixNano() }
	if m == modeTraced {
		s.probe = newNetProbe()
		wall = s.probe.wall
	}
	graph, flight := causal.NewGraph(), causal.NewFlight(256)
	base := lockd.Config{Recorder: s.rec, Graph: graph, Flight: flight, Registry: telemetry.NewRegistry()}
	if s.probe != nil {
		base.WrapConn = s.probe.wrapServerConn
	}

	if size == 1 {
		// cmd/lockd's defaults: causal tracing on, journal off.
		base.Clock = hlc.NewClockAt(wall)
		srv, err := lockd.Serve("127.0.0.1:0", base)
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
	} else {
		s.cluster = true
		if err := s.startCluster(env, base, wall, size); err != nil {
			return nil, err
		}
	}

	addrs := make([]string, len(s.servers))
	for i, srv := range s.servers {
		addrs[i] = srv.Addr()
	}
	clientClock := hlc.NewClockAt(wall)
	sessions := len(seqs)
	if env.shareSession {
		sessions = 1
	}
	slots := make([]*atomic.Pointer[residenceSlot], sessions)
	for i := 0; i < sessions; i++ {
		o := lockclient.Options{
			Client:   fmt.Sprintf("caller-%d", i),
			Recorder: s.rec,
			Clock:    clientClock,
			Seed:     env.seed + int64(i),
		}
		slots[i] = &atomic.Pointer[residenceSlot]{}
		if s.probe != nil {
			o.Dial = s.probe.clientDial(slots[i])
		}
		cl, err := lockclient.Dial(strings.Join(addrs, ","), o)
		if err != nil {
			return nil, fmt.Errorf("dial session %d: %w", i, err)
		}
		s.clients = append(s.clients, cl)
	}
	for c := range seqs {
		k := c % sessions
		nc := &netCaller{cl: s.clients[k], names: s.names}
		if s.probe != nil {
			s.cs = append(s.cs, &tracedNetCaller{netCaller: nc, slot: slots[k], outside: newReservoir(reservoirCap, uint64(c)+13)})
		} else {
			s.cs = append(s.cs, nc)
		}
	}
	return s, nil
}

// startCluster brings up a 3-node replicated lockd the way the ha-smoke
// suite does — loopback peers, one clock per node, a journal per node
// draining every 10 ms — and waits for the first leader. The journals
// keep every segment because the oracle verifies the whole history; the
// short drain interval matters for the tail: at 100 ms three writers'
// bursts set acquire_p99_us.
func (s *netSystem) startCluster(env *runEnv, base lockd.Config, wall func() int64, size int) error {
	var peers []replica.Peer
	for i := 1; i <= size; i++ {
		clock := hlc.NewClockAt(wall)
		dir := env.dir(fmt.Sprintf("node-%d", i))
		jr, err := journal.Open(journal.Config{Dir: dir, FlushEvery: 10 * time.Millisecond, MaxSegments: -1, Clock: clock})
		if err != nil {
			return err
		}
		s.jrnls, s.dirs = append(s.jrnls, jr), append(s.dirs, dir)
		rc := replica.Config{ID: i, Lease: leaderLease, Seed: 1, Journal: jr, Clock: clock, Logf: discardf}
		if s.probe != nil {
			rc.Dial = s.probe.peerDial
		}
		node := replica.New(rc)
		s.nodes = append(s.nodes, node)
		cfg := base
		cfg.Replica, cfg.Journal, cfg.Clock = node, jr, clock
		if s.probe != nil {
			cfg.Replica = timedReplica{Node: node, p: s.probe}
		}
		srv, err := lockd.Serve("127.0.0.1:0", cfg)
		if err != nil {
			return err
		}
		s.servers = append(s.servers, srv)
		peers = append(peers, replica.Peer{ID: i, Addr: srv.Addr()})
	}
	for i, n := range s.nodes {
		n.Start(s.servers[i], peers)
	}
	deadline := time.Now().Add(10 * leaderLease)
	for s.leader() < 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no leader within %v", 10*leaderLease)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func discardf(string, ...any) {}

// leader returns the index of the node that currently leads, or -1.
func (s *netSystem) leader() int {
	for i, n := range s.nodes {
		if n.Gate().Leader {
			return i
		}
	}
	return -1
}

func (s *netSystem) callers() []caller { return s.cs }

func (s *netSystem) markStart() {
	s.c0, s.cl0, s.j0, s.tr0 = s.counters(), s.clientStats(), s.journalStats(), s.transitions()
	s.spans0 = int64(s.rec.Len()) + s.rec.Dropped()
	if s.probe != nil {
		s.pc0 = s.probe.counts()
		s.probe.measuring.Store(true)
	}
}

func (s *netSystem) markEnd() {
	if s.probe != nil {
		s.probe.measuring.Store(false)
		s.pc1 = s.probe.counts()
	}
	s.c1, s.cl1, s.j1, s.tr1 = s.counters(), s.clientStats(), s.journalStats(), s.transitions()
	s.dropped1 = s.rec.Dropped()
	s.spans1 = int64(s.rec.Len()) + s.dropped1
}

func (s *netSystem) counters() lockd.Counters {
	var t lockd.Counters
	for _, srv := range s.servers {
		c := srv.Counters()
		t.Acquires += c.Acquires
		t.Releases += c.Releases
		t.StaleReleases += c.StaleReleases
		t.Sheds += c.Sheds
		t.AcquireTimeouts += c.AcquireTimeouts
	}
	return t
}

func (s *netSystem) clientStats() lockclient.Stats {
	var t lockclient.Stats
	for _, cl := range s.clients {
		st := cl.Stats()
		t.Retries += st.Retries
		t.Sheds += st.Sheds
	}
	return t
}

func (s *netSystem) journalStats() journal.Stats {
	var t journal.Stats
	for _, j := range s.jrnls {
		st := j.Stats()
		t.Appended += st.Appended
		t.Dropped += st.Dropped
	}
	return t
}

// transitions counts leadership changes seen by every node.
func (s *netSystem) transitions() int {
	n := 0
	for _, node := range s.nodes {
		n += len(node.Transitions())
	}
	return n
}

// check is the network oracle, run once the callers stopped: client and
// server agree on every grant and release, and on the cluster no
// election happened in the window, the learners converge on the
// leader's log, and the merged per-node journals verify clean.
func (s *netSystem) check(lr *loopResult) []string {
	var v []string
	c := s.counters()
	if c.Acquires != lr.grants || c.Releases != lr.releases || c.StaleReleases != 0 {
		v = append(v, fmt.Sprintf("callers saw %d grants and %d releases; servers counted %d acquires, %d releases, %d stale releases",
			lr.grants, lr.releases, c.Acquires, c.Releases, c.StaleReleases))
	}
	if !s.cluster {
		return v
	}
	if s.tr1 != s.tr0 {
		v = append(v, fmt.Sprintf("%d leadership transitions inside the measured window", s.tr1-s.tr0))
	}
	lead := s.leader()
	if lead < 0 {
		return append(v, "no leader after the run")
	}
	s.lagEntries = s.learnerLag(lead)
	deadline := time.Now().Add(5 * time.Second)
	for s.learnerLag(lead) != 0 {
		if time.Now().After(deadline) {
			v = append(v, fmt.Sprintf("learner logs still %d entries behind the leader after 5s", s.learnerLag(lead)))
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.closeService()
	// The service is gone; verification needs only its journals. Free the
	// service's heap and keep the verifier's own close to its live size.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	var procs []journal.ProcEntries
	for i, dir := range s.dirs {
		entries, _, err := journal.ReadDir(dir)
		if err != nil {
			return append(v, fmt.Sprintf("read node %d journal: %v", i+1, err))
		}
		procs = append(procs, journal.ProcEntries{Proc: fmt.Sprintf("node-%d", i+1), Entries: serviceHistory(entries)})
	}
	rep := journal.Verify(procs)
	for i, viol := range rep.Violations {
		if i == 10 {
			v = append(v, fmt.Sprintf("... %d journal violations in all", len(rep.Violations)))
			break
		}
		v = append(v, "journal: "+viol)
	}
	return v
}

// serviceHistory copies out the lock service's own records — sessions,
// grants and releases with their fencing tokens, as the leader commits
// them and the learners echo them — and drops the per-mutex
// native/<lock> records lockd also journals. native.Mutex emits a
// release event after it has already handed the lock on, so under
// contention the next owner's acquire can precede it in the journal and
// Verify reads the pair as a double grant: an ordering artefact of the
// native event stream, not of the service's history.
func serviceHistory(entries []journal.Entry) []journal.Entry {
	n := 0
	for _, e := range entries {
		if e.Origin != journal.OriginNative {
			n++
		}
	}
	out := make([]journal.Entry, 0, n)
	for _, e := range entries {
		if e.Origin != journal.OriginNative {
			out = append(out, e)
		}
	}
	return out
}

// learnerLag is the largest number of log entries a learner is behind
// the leader.
func (s *netSystem) learnerLag(lead int) int {
	want, lag := s.nodes[lead].LogLen(), 0
	for _, n := range s.nodes {
		if d := want - n.LogLen(); d > lag {
			lag = d
		}
	}
	return lag
}

func (s *netSystem) layers(lr *loopResult) map[string]float64 {
	ops := float64(lr.ops)
	per := func(d int64) float64 { return ratio(float64(d), ops) }
	p := s.probe
	var outs []*reservoir
	for _, c := range s.cs {
		outs = append(outs, c.(*tracedNetCaller).outside)
	}
	outside, _ := merge(outs...).quantile(0.5)
	p.mu.Lock()
	res := merge(p.residence)
	prop := merge(p.propose)
	p.mu.Unlock()
	res50, _ := res.quantile(0.5)
	res99, _ := res.quantile(0.99)
	appended := float64(s.j1.Appended - s.j0.Appended)
	dropped := float64(s.j1.Dropped - s.j0.Dropped)
	out := map[string]float64{
		"lockclient.retries_per_op": per(s.cl1.Retries - s.cl0.Retries),
		"lockclient.sheds_per_op":   per(s.cl1.Sheds - s.cl0.Sheds),
		"lockclient.outside_p50_us": outside / 1e3,
		"wire.bytes_per_op":         per(s.pc1.wireBytes - s.pc0.wireBytes),
		"wire.writes_per_op":        per(s.pc1.wireWrites - s.pc0.wireWrites),
		"wire.codec_ns_per_msg":     p.codecNsPerMsg(200 * time.Millisecond),
		"lockd.residence_p50_us":    res50 / 1e3,
		"lockd.residence_p99_us":    res99 / 1e3,
		"lockd.sheds_per_op":        per(s.c1.Sheds - s.c0.Sheds),
		"lockd.timeouts_per_op":     per(s.c1.AcquireTimeouts - s.c0.AcquireTimeouts),
		"hlc.wall_reads_per_op":     per(s.pc1.wallReads - s.pc0.wallReads),
		"causal.spans_per_op":       per(s.spans1 - s.spans0),
		"causal.dropped":            float64(s.dropped1),
	}
	if s.cluster {
		out["journal.records_per_op"] = ratio(appended, ops)
		out["journal.drop_ratio"] = ratio(dropped, appended+dropped)
		p50, _ := prop.quantile(0.5)
		p99, _ := prop.quantile(0.99)
		out["replica.propose_p50_us"] = p50 / 1e3
		out["replica.propose_p99_us"] = p99 / 1e3
		out["replica.peer_msgs_per_op"] = per(s.pc1.peerMsgs - s.pc0.peerMsgs)
		out["replica.peer_bytes_per_op"] = per(s.pc1.peerBytes - s.pc0.peerBytes)
		out["replica.elections_in_run"] = float64(s.tr1 - s.tr0)
		out["replica.learner_lag_entries"] = float64(s.lagEntries)
	}
	return out
}

// closeService stops the clients, nodes, servers and journals, in that
// order; safe to call twice.
func (s *netSystem) closeService() {
	for _, cl := range s.clients {
		cl.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, j := range s.jrnls {
		j.Close()
	}
	s.clients, s.nodes, s.servers, s.jrnls = nil, nil, nil, nil
}

func (s *netSystem) close() {
	s.closeService()
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

// netCaller is one caller on its own lockclient session.
type netCaller struct {
	cl    *lockclient.Client
	names []string
	held  *lockclient.Handle
}

func (c *netCaller) acquire(lock int) (uint64, error) {
	h, err := c.cl.Acquire(context.Background(), c.names[lock])
	if err != nil {
		return 0, err
	}
	c.held = h
	return h.Token, nil
}

func (c *netCaller) release(int, uint64) error {
	h := c.held
	c.held = nil
	return c.cl.Release(context.Background(), h)
}

// tracedNetCaller splits a timed acquire's round trip into the server's
// residence and everything outside it: client, codec and loopback.
type tracedNetCaller struct {
	*netCaller
	slot    *atomic.Pointer[residenceSlot]
	outside *reservoir
	before  int64
}

func (c *tracedNetCaller) acquire(lock int) (uint64, error) {
	if s := c.slot.Load(); s != nil {
		c.before = s.acquires.Load()
	}
	return c.netCaller.acquire(lock)
}

func (c *tracedNetCaller) timedAcquire(d time.Duration) {
	s := c.slot.Load()
	// Only a single-attempt acquire pairs with exactly one residence.
	if s == nil || s.acquires.Load() != c.before+1 {
		return
	}
	c.outside.add(int64(d) - s.last.Load())
}
