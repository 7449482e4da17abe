// Chaos suite: deterministic split-brain scenarios for the replicated
// lockd cluster. Each scenario kills or isolates a role mid-hold and
// asserts the invariants the design promises:
//
//   - fencing tokens stay strictly monotone across term boundaries;
//   - at most one holder exists at any instant, proven by running
//     journal.Verify over the merged per-node (plus client) journals;
//   - client acquire latency through a failover is bounded;
//   - the same seed and the same fault script produce identical
//     election traces and token sequences, run over run.
package replica_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/lockclient"
	"repro/internal/lockd"
	"repro/internal/replica"
)

// chaosDir places a journal under $HA_SMOKE_DIR when set — kept on
// failure so `make ha-smoke` (and CI) can ship the per-node segments as
// the failure artifact — and under t.TempDir() otherwise.
func chaosDir(t *testing.T, name string) string {
	root := os.Getenv("HA_SMOKE_DIR")
	if root == "" {
		return filepath.Join(t.TempDir(), name)
	}
	dir := filepath.Join(root, t.Name(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("mkdir %s: %v", dir, err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
			os.Remove(filepath.Dir(dir)) // prune the scenario dir once empty
			os.Remove(root)              // and the root, when nothing failed
		}
	})
	return dir
}

// chaosNode is one cluster member with its own journal, as if it were
// its own machine.
type chaosNode struct {
	id   int
	node *replica.Node
	srv  *lockd.Server
	jrnl *journal.Journal
	dir  string
	dead bool
}

// chaosCluster wires size nodes over loopback TCP with a breaker on
// every directed peer link, so a scenario can sever exactly the links
// a partition story calls for.
type chaosCluster struct {
	t     *testing.T
	nodes []*chaosNode
	peers []replica.Peer

	mu     sync.Mutex
	byAddr map[string]int
	brs    [][]*fault.Breaker // brs[i][j]: node i's dials to node j
	done   bool
}

func startChaosCluster(t *testing.T, size int, lease time.Duration, seed int64) *chaosCluster {
	t.Helper()
	c := &chaosCluster{t: t, byAddr: make(map[string]int)}
	c.brs = make([][]*fault.Breaker, size)
	for i := range c.brs {
		c.brs[i] = make([]*fault.Breaker, size)
		for j := range c.brs[i] {
			c.brs[i][j] = fault.NewBreaker()
		}
	}
	for i := 0; i < size; i++ {
		i := i
		dir := chaosDir(t, fmt.Sprintf("node-%d", i+1))
		jr, err := journal.Open(journal.Config{Dir: dir, FlushEvery: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("journal node %d: %v", i+1, err)
		}
		node := replica.New(replica.Config{
			ID:      i + 1,
			Lease:   lease,
			Seed:    seed,
			Journal: jr,
			Logf:    func(string, ...any) {},
			Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				c.mu.Lock()
				j, ok := c.byAddr[addr]
				c.mu.Unlock()
				if !ok {
					return conn, nil
				}
				return c.brs[i][j].Wrap(conn), nil
			},
		})
		srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{
			Replica:      node,
			Journal:      jr,
			DefaultLease: lease,
		})
		if err != nil {
			t.Fatalf("serve node %d: %v", i+1, err)
		}
		c.mu.Lock()
		c.byAddr[srv.Addr()] = i
		c.mu.Unlock()
		c.nodes = append(c.nodes, &chaosNode{id: i + 1, node: node, srv: srv, jrnl: jr, dir: dir})
		c.peers = append(c.peers, replica.Peer{ID: i + 1, Addr: srv.Addr()})
	}
	for i, n := range c.nodes {
		n.node.Start(n.srv, c.peers)
		_ = i
	}
	t.Cleanup(c.shutdown)
	return c
}

// addrList is the comma-joined cluster address a failover client dials.
func (c *chaosCluster) addrList() string {
	addrs := make([]string, len(c.peers))
	for i, p := range c.peers {
		addrs[i] = p.Addr
	}
	return strings.Join(addrs, ",")
}

// waitLeader polls until a live node (other than skip) leads.
func (c *chaosCluster) waitLeader(skip int) int {
	c.t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		for i, n := range c.nodes {
			if i == skip || n.dead {
				continue
			}
			if n.node.Gate().Leader {
				return i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("no leader within 8s")
	return -1
}

// waitConverged polls until every live node's log is as long as the
// log of node li.
func (c *chaosCluster) waitConverged(li int) {
	c.t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		want, done := c.nodes[li].node.LogLen(), true
		for _, n := range c.nodes {
			if !n.dead && n.node.LogLen() != want {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(time.Millisecond)
	}
	c.t.Fatalf("logs did not converge on node %d's within 2s", c.nodes[li].id)
}

// kill SIGKILLs node i in process: replica loop stops, server dies
// abruptly — held locks stay held, nothing says goodbye. The journal
// object survives (its file did too) and is flushed at verify time.
func (c *chaosCluster) kill(i int) {
	c.nodes[i].dead = true
	c.nodes[i].node.Close()
	c.nodes[i].srv.Kill()
}

// isolate severs both directions of every peer link touching node i —
// the classic split-brain partition. Client traffic is NOT severed:
// the stranded leader keeps hearing from clients, which is exactly the
// scenario fencing must survive.
func (c *chaosCluster) isolate(i int) {
	for j := range c.nodes {
		if j == i {
			continue
		}
		c.brs[i][j].Drop()
		c.brs[j][i].Drop()
	}
}

// heal reopens node i's peer links.
func (c *chaosCluster) heal(i int) {
	for j := range c.nodes {
		if j == i {
			continue
		}
		c.brs[i][j].Heal()
		c.brs[j][i].Heal()
	}
}

// shutdown stops everything still live. Safe to call twice.
func (c *chaosCluster) shutdown() {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	c.mu.Unlock()
	for _, n := range c.nodes {
		if !n.dead {
			n.node.Close()
			n.srv.Close()
		}
		n.jrnl.Close()
	}
}

// verify shuts the cluster down, merges every node's journal (dead
// ones included) with any extra procs, and runs the cross-node
// verifier. The merged history must be violation-free.
func (c *chaosCluster) verify(extra ...journal.ProcEntries) journal.VerifyReport {
	c.t.Helper()
	c.shutdown()
	procs := append([]journal.ProcEntries(nil), extra...)
	for _, n := range c.nodes {
		entries, _, err := journal.ReadDir(n.dir)
		if err != nil {
			c.t.Fatalf("read node %d journal: %v", n.id, err)
		}
		procs = append(procs, journal.ProcEntries{Proc: fmt.Sprintf("node-%d", n.id), Entries: entries})
	}
	rep := journal.Verify(procs)
	if !rep.Ok() {
		c.t.Fatalf("merged journal verification failed:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
	return rep
}

// readClientJournal closes and reads a client-side journal.
func readClientJournal(t *testing.T, j *journal.Journal, dir string) journal.ProcEntries {
	t.Helper()
	j.Close()
	entries, _, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatalf("read client journal: %v", err)
	}
	return journal.ProcEntries{Proc: "client", Entries: entries}
}

func chaosClient(t *testing.T, cluster string, j *journal.Journal, seed int64) *lockclient.Client {
	t.Helper()
	cl, err := lockclient.Dial(cluster, lockclient.Options{
		Client:      "chaos-cli",
		Lease:       2 * time.Second,
		Heartbeat:   -1,
		MaxAttempts: 30,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  250 * time.Millisecond,
		Seed:        seed,
		NoTrace:     true,
		Journal:     j,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return cl
}

// TestChaosKillLeaderMidHold: the leader dies (SIGKILL, in process)
// while a client holds a lock. The client must ride the failover with
// its session and hold intact, the release must land on the new
// leader, and the re-grant's token must climb past the old term's.
func TestChaosKillLeaderMidHold(t *testing.T) {
	c := startChaosCluster(t, 3, 100*time.Millisecond, 77)
	li := c.waitLeader(-1)

	cdir := chaosDir(t, "client")
	cj, err := journal.Open(journal.Config{Dir: cdir, FlushEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("client journal: %v", err)
	}
	cl := chaosClient(t, c.addrList(), cj, 5)
	defer cl.Close()
	ctx := context.Background()

	h1, err := cl.Acquire(ctx, "chaos")
	if err != nil {
		t.Fatalf("acquire before kill: %v", err)
	}
	session := cl.Session()

	c.kill(li)

	start := time.Now()
	if err := cl.Release(ctx, h1); err != nil {
		t.Fatalf("release through failover: %v", err)
	}
	h2, err := cl.Acquire(ctx, "chaos")
	if err != nil {
		t.Fatalf("re-acquire through failover: %v", err)
	}
	took := time.Since(start)

	if h2.Token <= h1.Token {
		t.Fatalf("token regressed across term boundary: %d then %d", h1.Token, h2.Token)
	}
	if got := cl.Session(); got != session {
		t.Fatalf("session not resumed: %d then %d", session, got)
	}
	// Bounded failover latency: one election (at most lease + 2
	// permutation slots) plus client retries. 4s is an order of
	// magnitude of slack over the ~400ms budget, but still catches a
	// runaway retry loop.
	if took > 4*time.Second {
		t.Fatalf("failover took %v", took)
	}
	if err := cl.Release(ctx, h2); err != nil {
		t.Fatalf("release after failover: %v", err)
	}
	cl.Close()

	rep := c.verify(readClientJournal(t, cj, cdir))
	if rep.ReplicatedLocks == 0 {
		t.Fatalf("verifier saw no replicated locks: %+v", rep)
	}
	if rep.Grants < 2 {
		t.Fatalf("merged history has %d grants, want >= 2", rep.Grants)
	}
}

// TestChaosPartitionLeaderSplitBrain: the leader is cut off from its
// peers but NOT from clients — the textbook split-brain. The stranded
// leader must fence itself when its lease lapses (clients get
// NotLeader, its sessions die through the owner-death path), the other
// side must elect, and the healed ex-leader must rejoin as a learner
// on the new term with a converged log.
func TestChaosPartitionLeaderSplitBrain(t *testing.T) {
	c := startChaosCluster(t, 3, 100*time.Millisecond, 13)
	li := c.waitLeader(-1)

	cdir := chaosDir(t, "client")
	cj, err := journal.Open(journal.Config{Dir: cdir, FlushEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("client journal: %v", err)
	}
	cl := chaosClient(t, c.addrList(), cj, 6)
	defer cl.Close()
	ctx := context.Background()

	h1, err := cl.Acquire(ctx, "split")
	if err != nil {
		t.Fatalf("acquire before partition: %v", err)
	}
	oldTerm := c.nodes[li].node.Term()

	c.isolate(li)

	// The stranded leader must stop asserting leadership within one
	// lease (its gate goes cold even before the step-down tick).
	deadline := time.Now().Add(3 * time.Second)
	for c.nodes[li].node.Gate().Leader && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.nodes[li].node.Gate().Leader {
		t.Fatalf("partitioned leader still asserting leadership after 3s")
	}

	ni := c.waitLeader(li)
	if got := c.nodes[ni].node.Term(); got <= oldTerm {
		t.Fatalf("new term %d not past %d", got, oldTerm)
	}

	// The client rides to the majority side: release + re-acquire must
	// go through the NEW leader, with the token climbing.
	if err := cl.Release(ctx, h1); err != nil {
		t.Fatalf("release through partition: %v", err)
	}
	h2, err := cl.Acquire(ctx, "split")
	if err != nil {
		t.Fatalf("re-acquire through partition: %v", err)
	}
	if h2.Token <= h1.Token {
		t.Fatalf("token regressed across partition: %d then %d", h1.Token, h2.Token)
	}
	if err := cl.Release(ctx, h2); err != nil {
		t.Fatalf("release: %v", err)
	}

	// Heal: the ex-leader must rejoin as a learner on the new term and
	// its log must converge with the majority's.
	c.heal(li)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ex := c.nodes[li].node
		if ex.Role() == replica.RoleLearner && ex.Term() == c.nodes[ni].node.Term() &&
			ex.LogLen() == c.nodes[ni].node.LogLen() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	ex := c.nodes[li].node
	if ex.Role() != replica.RoleLearner || ex.LogLen() != c.nodes[ni].node.LogLen() {
		t.Fatalf("ex-leader did not converge: role %v, log %d vs %d",
			ex.Role(), ex.LogLen(), c.nodes[ni].node.LogLen())
	}
	cl.Close()

	rep := c.verify(readClientJournal(t, cj, cdir))
	if rep.ReplicatedLocks == 0 {
		t.Fatalf("verifier saw no replicated locks: %+v", rep)
	}
}

// TestChaosKillLearnerMidHold: losing a learner must cost nothing — the
// leader still has a quorum, holds survive, tokens keep climbing.
func TestChaosKillLearnerMidHold(t *testing.T) {
	c := startChaosCluster(t, 3, 100*time.Millisecond, 29)
	li := c.waitLeader(-1)

	cdir := chaosDir(t, "client")
	cj, err := journal.Open(journal.Config{Dir: cdir, FlushEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("client journal: %v", err)
	}
	cl := chaosClient(t, c.addrList(), cj, 7)
	defer cl.Close()
	ctx := context.Background()

	h1, err := cl.Acquire(ctx, "kl")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	learner := -1
	for i := range c.nodes {
		if i != li {
			learner = i
			break
		}
	}
	c.kill(learner)

	// The leader keeps serving on the surviving quorum.
	if err := cl.Release(ctx, h1); err != nil {
		t.Fatalf("release after learner death: %v", err)
	}
	h2, err := cl.Acquire(ctx, "kl")
	if err != nil {
		t.Fatalf("re-acquire after learner death: %v", err)
	}
	if h2.Token <= h1.Token {
		t.Fatalf("token regressed: %d then %d", h1.Token, h2.Token)
	}
	if got := c.waitLeader(-1); got != li {
		t.Fatalf("leadership moved (node %d -> %d) on a learner death", li, got)
	}
	if err := cl.Release(ctx, h2); err != nil {
		t.Fatalf("release: %v", err)
	}
	cl.Close()
	c.verify(readClientJournal(t, cj, cdir))
}

// chaosScriptRun executes one fixed kill-the-leader script and returns
// the client's token sequence plus every node's leadership trace.
func chaosScriptRun(t *testing.T, seed int64) ([]uint64, map[int][]replica.Transition) {
	c := startChaosCluster(t, 3, 250*time.Millisecond, seed)
	defer c.shutdown()
	li := c.waitLeader(-1)

	cl := chaosClient(t, c.addrList(), nil, 11)
	defer cl.Close()
	ctx := context.Background()

	var tokens []uint64
	h1, err := cl.Acquire(ctx, "det")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	tokens = append(tokens, h1.Token)

	// A grant returns once a quorum holds its entry, so the second
	// learner may still lack it. Which learner wins the next election
	// depends on whose log is complete, so kill the leader only once
	// both are: the script then starts every run from the same state.
	c.waitConverged(li)
	c.kill(li)

	if err := cl.Release(ctx, h1); err != nil {
		t.Fatalf("release through failover: %v", err)
	}
	for i := 0; i < 2; i++ {
		h, err := cl.Acquire(ctx, "det")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		tokens = append(tokens, h.Token)
		if err := cl.Release(ctx, h); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	// Let the last entries ship before reading traces.
	c.waitLeader(-1)
	time.Sleep(100 * time.Millisecond)

	traces := make(map[int][]replica.Transition)
	for _, n := range c.nodes {
		traces[n.id] = n.node.Transitions()
	}
	return tokens, traces
}

// TestChaosSameSeedSameTrace runs the same scripted failover twice with
// the same seeds: elections, failover order, and the token sequence
// must be identical — chaos runs are reproducible, not merely
// convergent.
func TestChaosSameSeedSameTrace(t *testing.T) {
	const seed = 4242
	tok1, tr1 := chaosScriptRun(t, seed)
	tok2, tr2 := chaosScriptRun(t, seed)

	if len(tok1) != len(tok2) {
		t.Fatalf("token sequences differ in length: %v vs %v", tok1, tok2)
	}
	for i := range tok1 {
		if tok1[i] != tok2[i] {
			t.Fatalf("token sequence diverged at %d: %v vs %v", i, tok1, tok2)
		}
	}
	for i := 1; i < len(tok1); i++ {
		if tok1[i] <= tok1[i-1] {
			t.Fatalf("token sequence not strictly monotone: %v", tok1)
		}
	}
	for id, a := range tr1 {
		b := tr2[id]
		if len(a) != len(b) {
			t.Fatalf("node %d trace lengths differ: %v vs %v", id, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d trace diverged at %d: %v vs %v", id, i, a, b)
			}
		}
	}
}

// TestIsolatedLearnerCatchesUpBySnapshot: a learner cut off from its
// peers falls past the leader's compaction cap, so the entries it lacks
// are gone from every log. Healed, it must catch up by installing a
// snapshot. Then the leader dies and, with the third node unable to
// campaign, the snapshot-installed node takes over: its tokens must
// climb past every token granted before, and the merged journals must
// verify clean — no snapshot state is echoed as history.
func TestIsolatedLearnerCatchesUpBySnapshot(t *testing.T) {
	c := startChaosCluster(t, 3, 100*time.Millisecond, 31)
	li := c.waitLeader(-1)
	lag, other := (li+1)%3, (li+2)%3

	cdir := chaosDir(t, "client")
	cj, err := journal.Open(journal.Config{Dir: cdir, FlushEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("client journal: %v", err)
	}
	cl := chaosClient(t, c.addrList(), cj, 8)
	defer cl.Close()
	ctx := context.Background()
	var last uint64
	cycle := func(what string) {
		t.Helper()
		h, err := cl.Acquire(ctx, "snap")
		if err != nil {
			t.Fatalf("acquire %s: %v", what, err)
		}
		if h.Token <= last {
			t.Fatalf("token regressed %s: %d after %d", what, h.Token, last)
		}
		last = h.Token
		if err := cl.Release(ctx, h); err != nil {
			t.Fatalf("release %s: %v", what, err)
		}
	}
	cycle("before the partition")
	c.waitConverged(li)

	c.isolate(lag)
	leader := c.nodes[li].node
	for i := 0; leader.SnapshotIndex() <= uint64(c.nodes[lag].node.LogLen()); i++ {
		if i == 200 {
			t.Fatalf("leader never compacted past the isolated learner's log (%d entries)", c.nodes[lag].node.LogLen())
		}
		cycle("while a learner is isolated")
	}

	c.heal(lag)
	deadline := time.Now().Add(5 * time.Second)
	for {
		ni := c.waitLeader(-1)
		n := c.nodes[lag].node
		if n.SnapshotInstalls() > 0 && n.LogLen() == c.nodes[ni].node.LogLen() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed learner did not catch up by snapshot: %d installs, log %d vs leader's %d",
				n.SnapshotInstalls(), n.LogLen(), c.nodes[ni].node.LogLen())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill whoever leads now (the heal may have forced an election), and
	// cut the third node's outbound links so that only the
	// snapshot-installed node can win the next one.
	ni := c.waitLeader(-1)
	if ni == lag {
		t.Fatalf("the stale learner won an election before catching up")
	}
	c.waitConverged(ni)
	if got, want := c.nodes[lag].node.ReplicatedState(), c.nodes[ni].node.ReplicatedState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot-installed node holds\n%+v\nleader holds\n%+v", got, want)
	}
	if ni == other {
		other = li
	}
	c.kill(ni)
	for j := range c.nodes {
		if j != other {
			c.brs[other][j].Drop()
		}
	}
	if got := c.waitLeader(ni); got != lag {
		t.Fatalf("node %d leads, want the snapshot-installed node %d", c.nodes[got].id, c.nodes[lag].id)
	}
	cycle("on the snapshot-installed leader")
	cycle("on the snapshot-installed leader, again")
	cl.Close()
	c.verify(readClientJournal(t, cj, cdir))
}
