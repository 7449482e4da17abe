package replica

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/lockd"
)

// links interposes on every peer connection of a test cluster. Per
// target address it can delay each write, or hold the writes of
// non-empty appends until released; and it logs every append written,
// by sender and target.
type links struct {
	mu      sync.Mutex
	delay   map[string]time.Duration
	gate    map[string]chan struct{} // non-nil: non-empty appends block
	blocked int                      // writes waiting on a gate
	sends   []sendRec
}

// sendRec is one append request as it was written to a peer link.
type sendRec struct {
	from    int
	to      string
	at      time.Time
	entries int
}

func newLinks() *links {
	return &links{delay: make(map[string]time.Duration), gate: make(map[string]chan struct{})}
}

// dial is the startClusterDial hook.
func (l *links) dial(id int) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &linkConn{Conn: conn, l: l, from: id, to: addr}, nil
	}
}

func (l *links) setDelay(addr string, d time.Duration) {
	l.mu.Lock()
	l.delay[addr] = d
	l.mu.Unlock()
}

// hold makes non-empty appends to addr block until release.
func (l *links) hold(addr string) {
	l.mu.Lock()
	l.gate[addr] = make(chan struct{})
	l.mu.Unlock()
}

func (l *links) release(addr string) {
	l.mu.Lock()
	if g := l.gate[addr]; g != nil {
		close(g)
		delete(l.gate, addr)
	}
	l.mu.Unlock()
}

// releaseAll opens every gate; tests register it as a cleanup so a
// failed test cannot leave a replicator stuck in a held write.
func (l *links) releaseAll() {
	l.mu.Lock()
	for addr, g := range l.gate {
		close(g)
		delete(l.gate, addr)
	}
	l.mu.Unlock()
}

func (l *links) blockedWrites() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blocked
}

// appendsTo returns the appends from sender to target written at or
// after since, in write order.
func (l *links) appendsTo(from int, to string, since time.Time) []sendRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []sendRec
	for _, r := range l.sends {
		if r.from == from && r.to == to && !r.at.Before(since) {
			out = append(out, r)
		}
	}
	return out
}

type linkConn struct {
	net.Conn
	l    *links
	from int
	to   string
}

func (c *linkConn) Write(b []byte) (int, error) {
	// Each write is one whole peer request frame.
	var req lockd.PeerRequest
	isAppend := lockd.ParsePeerRequest(b, &req) == nil && req.Op == lockd.OpReplAppend
	c.l.mu.Lock()
	if isAppend {
		c.l.sends = append(c.l.sends, sendRec{from: c.from, to: c.to, at: time.Now(), entries: len(req.Entries)})
	}
	d := c.l.delay[c.to]
	g := c.l.gate[c.to]
	if !isAppend || len(req.Entries) == 0 {
		g = nil
	}
	if g != nil {
		c.l.blocked++
	}
	c.l.mu.Unlock()
	if g != nil {
		<-g
		c.l.mu.Lock()
		c.l.blocked--
		c.l.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(b)
}

// holdsToken reports whether n holds grant(tok): as a log entry, or
// folded into its snapshot base.
func (n *Node) holdsToken(tok uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.log {
		if e.m.Token == tok {
			return true
		}
	}
	lk := n.base.locks[grant(tok).Lock]
	return lk != nil && lk.fence >= tok
}

// logLag reads the lockd_replica_log_lag gauge off n's telemetry pull.
func (n *Node) logLag() int64 {
	for _, p := range n.telemetrySnapshot().Extra {
		if p.Name == "lockd_replica_log_lag" {
			return p.Value
		}
	}
	return -1
}

func grant(tok uint64) lockd.Mutation {
	return lockd.Mutation{Kind: journal.KindAcquire, Lock: fmt.Sprintf("l%d", tok), Agent: "a", Session: 1, Token: tok}
}

// learners returns the indexes of every node but li.
func (c *testCluster) learners(li int) []int {
	var out []int
	for i := range c.nodes {
		if i != li {
			out = append(out, i)
		}
	}
	return out
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// converged reports whether every node's log is as long as the
// leader's.
func (c *testCluster) converged(li int) bool {
	want := c.nodes[li].LogLen()
	for _, n := range c.nodes {
		if n.LogLen() != want {
			return false
		}
	}
	return true
}

// TestProposeOutrunsSlowLearner: with one learner's link delayed 200ms
// per write, Proposes commit on the other learner's ack and return well
// under the delay; the slow learner converges once the delay lifts.
func TestProposeOutrunsSlowLearner(t *testing.T) {
	const delay = 200 * time.Millisecond
	l := newLinks()
	c := startClusterDial(t, 3, time.Second, 3, l.dial)
	li := c.waitLeader(5 * time.Second)
	leader := c.nodes[li]
	slow := c.learners(li)[0]
	l.setDelay(c.peers[slow].Addr, delay)
	for tok := uint64(1); tok <= 5; tok++ {
		start := time.Now()
		if err := leader.Propose(grant(tok)); err != nil {
			t.Fatalf("propose %d: %v", tok, err)
		}
		if el := time.Since(start); el >= delay/2 {
			t.Fatalf("propose %d took %v with one learner %v behind", tok, el, delay)
		}
	}
	if c.nodes[slow].LogLen() >= leader.LogLen() {
		t.Fatalf("slow learner already holds all %d entries", leader.LogLen())
	}
	l.setDelay(c.peers[slow].Addr, 0)
	waitFor(t, 3*time.Second, "the slow learner to converge", func() bool { return c.converged(li) })
}

// TestProposesGroupCommit: K Proposes issued while an append is in
// flight to every learner go out together in one follow-up append per
// learner, and each returns only once a quorum holds its entry.
func TestProposesGroupCommit(t *testing.T) {
	const k = 5
	l := newLinks()
	c := startClusterDial(t, 3, 2*time.Second, 3, l.dial)
	t.Cleanup(l.releaseAll)
	li := c.waitLeader(8 * time.Second)
	leader := c.nodes[li]
	lrn := c.learners(li)
	for _, i := range lrn {
		l.hold(c.peers[i].Addr)
	}
	since := time.Now()
	errs := make(chan error, k+1)
	propose := func(tok uint64) {
		if err := leader.Propose(grant(tok)); err != nil {
			errs <- fmt.Errorf("propose %d: %v", tok, err)
			return
		}
		holders := 1 // the leader
		for _, i := range lrn {
			if c.nodes[i].holdsToken(tok) {
				holders++
			}
		}
		if holders < 2 {
			errs <- fmt.Errorf("propose %d returned with its entry on %d node(s)", tok, holders)
			return
		}
		errs <- nil
	}
	base := leader.LogLen()
	go propose(100)
	waitFor(t, time.Second, "both learners' first append in flight", func() bool { return l.blockedWrites() == len(lrn) })
	for tok := uint64(101); tok <= 100+k; tok++ {
		go propose(tok)
	}
	waitFor(t, time.Second, "the log to take every entry", func() bool { return leader.LogLen() == base+1+k })
	select {
	case err := <-errs:
		t.Fatalf("a propose returned with no learner reachable: %v", err)
	default:
	}
	for _, i := range lrn {
		l.release(c.peers[i].Addr)
	}
	for i := 0; i < k+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// A quorum needs one learner; wait for the other's follow-up too.
	waitFor(t, 3*time.Second, "every learner to converge", func() bool { return c.converged(li) })
	for _, i := range lrn {
		var batches []int
		for _, s := range l.appendsTo(leader.cfg.ID, c.peers[i].Addr, since) {
			if s.entries > 0 {
				batches = append(batches, s.entries)
			}
		}
		if len(batches) != 2 || batches[0] != 1 || batches[1] != k {
			t.Fatalf("learner %d got append batches %v, want [1 %d]", i+1, batches, k)
		}
	}
}

// TestIdleLeaderOnlyHeartbeats: once Proposes stop, the leader sends
// each learner nothing but empty heartbeats, lease/4 apart — no empty
// append chasing a wake-up left over from the Proposes.
func TestIdleLeaderOnlyHeartbeats(t *testing.T) {
	const lease = 400 * time.Millisecond
	const idle = time.Second
	beat := lease / 4
	l := newLinks()
	c := startClusterDial(t, 3, lease, 3, l.dial)
	li := c.waitLeader(5 * time.Second)
	leader := c.nodes[li]
	since := time.Now()
	const n = 20
	for tok := uint64(1); tok <= n; tok++ {
		if err := leader.Propose(grant(tok)); err != nil {
			t.Fatalf("propose %d: %v", tok, err)
		}
	}
	time.Sleep(idle)
	for _, i := range c.learners(li) {
		sends := l.appendsTo(leader.cfg.ID, c.peers[i].Addr, since)
		data, beats := 0, 0
		for j, s := range sends {
			if s.entries > 0 {
				data++
				continue
			}
			beats++
			// A heartbeat chasing a leftover wake-up would follow the
			// previous append within microseconds; half a beat of slack
			// absorbs scheduling delay between a send and its write.
			if j > 0 {
				if gap := s.at.Sub(sends[j-1].at); gap < beat/2 {
					t.Fatalf("learner %d: heartbeat %v after the previous append, want ~%v", i+1, gap, beat)
				}
			}
		}
		if data > n {
			t.Fatalf("learner %d: %d data appends for %d proposes", i+1, data, n)
		}
		if max := int(idle/beat) + 2; beats > max || beats < max/3 {
			t.Fatalf("learner %d: %d heartbeats in ~%v idle, want about %d", i+1, beats, idle, int(idle/beat))
		}
	}
}

// TestLogLagFromMatch: lockd_replica_log_lag counts entries a learner
// has not acknowledged — 0 once the cluster converges, above 0 while a
// learner's link holds its appends.
func TestLogLagFromMatch(t *testing.T) {
	l := newLinks()
	c := startClusterDial(t, 3, 2*time.Second, 3, l.dial)
	t.Cleanup(l.releaseAll)
	li := c.waitLeader(8 * time.Second)
	leader := c.nodes[li]
	for tok := uint64(1); tok <= 3; tok++ {
		if err := leader.Propose(grant(tok)); err != nil {
			t.Fatalf("propose %d: %v", tok, err)
		}
	}
	waitFor(t, 3*time.Second, "lag 0 after convergence", func() bool { return c.converged(li) && leader.logLag() == 0 })
	held := c.peers[c.learners(li)[0]].Addr
	l.hold(held)
	for tok := uint64(4); tok <= 6; tok++ {
		if err := leader.Propose(grant(tok)); err != nil {
			t.Fatalf("propose %d: %v", tok, err)
		}
	}
	if lag := leader.logLag(); lag != 3 {
		t.Fatalf("lag with one learner held = %d, want 3", lag)
	}
	l.release(held)
	waitFor(t, 3*time.Second, "lag 0 after release", func() bool { return c.converged(li) && leader.logLag() == 0 })
}

// TestAppendsBoundedWhileCatchingUp: a learner whose link held its
// appends while the log grew catches up in appends of at most maxAppend
// entries each, so no frame outgrows the peer frame limit however far
// behind it fell.
func TestAppendsBoundedWhileCatchingUp(t *testing.T) {
	defer func(old int) { maxAppend = old }(maxAppend)
	maxAppend = 3
	l := newLinks()
	c := startClusterDial(t, 3, 2*time.Second, 3, l.dial)
	t.Cleanup(l.releaseAll)
	li := c.waitLeader(8 * time.Second)
	leader := c.nodes[li]
	held := c.peers[c.learners(li)[0]].Addr
	since := time.Now()
	l.hold(held)
	const k = 10
	for tok := uint64(1); tok <= k; tok++ {
		if err := leader.Propose(grant(tok)); err != nil {
			t.Fatalf("propose %d: %v", tok, err)
		}
	}
	l.release(held)
	waitFor(t, 3*time.Second, "the held learner to converge", func() bool { return c.converged(li) })
	var batches []int
	total := 0
	for _, s := range l.appendsTo(leader.cfg.ID, held, since) {
		if s.entries > 0 {
			batches = append(batches, s.entries)
			total += s.entries
		}
	}
	for _, b := range batches {
		if b > maxAppend {
			t.Fatalf("append batches %v, want none over %d entries", batches, maxAppend)
		}
	}
	if total < k || len(batches) < 4 {
		t.Fatalf("append batches %v carry %d entries, want %d in at least 4 appends", batches, total, k)
	}
}
