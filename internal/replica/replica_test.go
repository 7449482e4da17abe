package replica

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/lockd"
)

// testCluster is an in-process cluster: n lockd servers, each gated by
// a replica node, wired over real loopback TCP.
type testCluster struct {
	t     *testing.T
	nodes []*Node
	srvs  []*lockd.Server
	peers []Peer
	dead  []bool
}

func startCluster(t *testing.T, size int, lease time.Duration, seed int64) *testCluster {
	t.Helper()
	return startClusterDial(t, size, lease, seed, nil)
}

// startClusterDial is startCluster with each node's peer links dialed
// through dial(id) when dial is non-nil.
func startClusterDial(t *testing.T, size int, lease time.Duration, seed int64,
	dial func(id int) func(addr string, timeout time.Duration) (net.Conn, error)) *testCluster {
	t.Helper()
	c := &testCluster{t: t, dead: make([]bool, size)}
	for i := 0; i < size; i++ {
		cfg := Config{
			ID:    i + 1,
			Lease: lease,
			Seed:  seed,
			Logf:  func(string, ...any) {},
		}
		if dial != nil {
			cfg.Dial = dial(i + 1)
		}
		node := New(cfg)
		srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{
			Replica:      node,
			DefaultLease: lease,
		})
		if err != nil {
			t.Fatalf("serve node %d: %v", i+1, err)
		}
		c.nodes = append(c.nodes, node)
		c.srvs = append(c.srvs, srv)
		c.peers = append(c.peers, Peer{ID: i + 1, Addr: srv.Addr()})
	}
	for i, node := range c.nodes {
		node.Start(c.srvs[i], c.peers)
	}
	t.Cleanup(func() {
		for i := range c.nodes {
			if !c.dead[i] {
				c.nodes[i].Close()
				c.srvs[i].Close()
			}
		}
	})
	return c
}

// kill SIGKILLs node i in-process: server dies abruptly, replica loop
// stops.
func (c *testCluster) kill(i int) {
	c.dead[i] = true
	c.nodes[i].Close()
	c.srvs[i].Kill()
}

// waitLeader polls until exactly one live node asserts leadership and
// returns its index.
func (c *testCluster) waitLeader(timeout time.Duration) int {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		leader := -1
		count := 0
		for i, n := range c.nodes {
			if c.dead[i] {
				continue
			}
			if n.Gate().Leader {
				leader = i
				count++
			}
		}
		if count == 1 {
			return leader
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("no single leader within %v", timeout)
	return -1
}

// expectedFirstLeader computes which ID the seeded permutation puts
// first for a term — the deterministic winner when all nodes are live.
func expectedFirstLeader(ids []int, seed int64, term uint64) int {
	perm := append([]int(nil), ids...)
	sort.Ints(perm)
	r := rand.New(rand.NewSource(int64(uint64(seed) ^ term*0x9e3779b97f4a7c15)))
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm[0]
}

func TestSingleNodeClusterLeads(t *testing.T) {
	c := startCluster(t, 1, 100*time.Millisecond, 7)
	i := c.waitLeader(3 * time.Second)
	n := c.nodes[i]
	if got := n.Term(); got != 1 {
		t.Fatalf("term = %d, want 1", got)
	}
	err := n.Propose(lockd.Mutation{
		Kind: journal.KindAcquire, Lock: "solo", Agent: "a", Session: 1, Token: 1,
	})
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	if got := n.LogLen(); got != 1 {
		t.Fatalf("log len = %d, want 1", got)
	}
}

func TestThreeNodeElectionIsDeterministic(t *testing.T) {
	const seed = 42
	c := startCluster(t, 3, 150*time.Millisecond, seed)
	i := c.waitLeader(5 * time.Second)
	want := expectedFirstLeader([]int{1, 2, 3}, seed, 1)
	if got := c.nodes[i].cfg.ID; got != want {
		t.Fatalf("term-1 leader = node %d, want node %d (seeded permutation)", got, want)
	}
	if got := c.nodes[i].Term(); got != 1 {
		t.Fatalf("term = %d, want 1", got)
	}
}

func TestProposeShipsToLearners(t *testing.T) {
	c := startCluster(t, 3, 100*time.Millisecond, 3)
	li := c.waitLeader(5 * time.Second)
	leader := c.nodes[li]
	muts := []lockd.Mutation{
		{Kind: journal.KindSessionOpen, Agent: "cli", Session: 9, DurNs: int64(time.Second)},
		{Kind: journal.KindAcquire, Lock: "shared", Agent: "cli", Session: 9, Token: 4},
	}
	for _, m := range muts {
		if err := leader.Propose(m); err != nil {
			t.Fatalf("propose %v: %v", m.Kind, err)
		}
	}
	// Quorum acks mean at least one learner already holds both entries;
	// heartbeats catch the rest up quickly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		caught := 0
		for _, n := range c.nodes {
			if n.LogLen() == len(muts) {
				caught++
			}
		}
		if caught == len(c.nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("learners did not catch up: lens %d/%d/%d",
				c.nodes[0].LogLen(), c.nodes[1].LogLen(), c.nodes[2].LogLen())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, n := range c.nodes {
		n.mu.Lock()
		sh := n.liveShadowLocked()
		n.mu.Unlock()
		lk := sh.locks["shared"]
		sess := sh.sessions[9]
		if lk == nil || lk.fence != 4 || lk.holderSession != 9 {
			t.Fatalf("node %d shadow lock = %+v, want fence 4 held by session 9", i+1, lk)
		}
		if sess == nil || sess.client != "cli" {
			t.Fatalf("node %d shadow session 9 = %+v, want client cli", i+1, sess)
		}
	}
}

func TestLeaderKillPromotesLearnerWithState(t *testing.T) {
	c := startCluster(t, 3, 100*time.Millisecond, 5)
	li := c.waitLeader(5 * time.Second)
	leader := c.nodes[li]
	oldTerm := leader.Term()
	muts := []lockd.Mutation{
		{Kind: journal.KindSessionOpen, Agent: "cli", Session: 3, DurNs: int64(200 * time.Millisecond)},
		{Kind: journal.KindAcquire, Lock: "ha", Agent: "cli", Session: 3, Token: 17},
	}
	for _, m := range muts {
		if err := leader.Propose(m); err != nil {
			t.Fatalf("propose: %v", err)
		}
	}
	c.kill(li)
	ni := c.waitLeader(5 * time.Second)
	if ni == li {
		t.Fatalf("dead node still leading")
	}
	next := c.nodes[ni]
	if next.Term() <= oldTerm {
		t.Fatalf("new term %d not past old term %d", next.Term(), oldTerm)
	}
	// The promoted learner must carry the replicated grant: token floor
	// >= anything ever granted.
	next.mu.Lock()
	lk := next.liveShadowLocked().locks["ha"]
	next.mu.Unlock()
	if lk == nil || lk.fence < 17 {
		t.Fatalf("promoted learner shadow lock = %+v, want fence >= 17", lk)
	}
}

// TestLearnerRedirectsClients drives the raw wire: a client op sent to
// a learner gets CodeNotLeader with the leader's address as the hint.
func TestLearnerRedirectsClients(t *testing.T) {
	c := startCluster(t, 3, 100*time.Millisecond, 11)
	li := c.waitLeader(5 * time.Second)
	leaderAddr := c.peers[li].Addr

	learner := -1
	for i := range c.nodes {
		if i != li {
			learner = i
			break
		}
	}
	// Learners may take a heartbeat to learn the leader's address.
	deadline := time.Now().Add(2 * time.Second)
	for c.nodes[learner].LeaderAddr() != leaderAddr && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	conn, err := net.Dial("tcp", c.peers[learner].Addr)
	if err != nil {
		t.Fatalf("dial learner: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, `{"id":1,"op":"hello","client":"probe"}`+"\n")
	var resp lockd.Response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatalf("read response: %v", err)
	}
	if resp.Code != lockd.CodeNotLeader {
		t.Fatalf("code = %q, want %q", resp.Code, lockd.CodeNotLeader)
	}
	if resp.LeaderAddr != leaderAddr {
		t.Fatalf("redirect hint = %q, want leader %q", resp.LeaderAddr, leaderAddr)
	}
}

func TestMutationCodecRoundTrip(t *testing.T) {
	cases := []lockd.Mutation{
		{Kind: journal.KindSessionOpen, Agent: "cli-1", Session: 42, DurNs: int64(time.Second)},
		{Kind: journal.KindAcquire, Lock: "db", Agent: "cli-1", Session: 42, Token: 7, Trace: 99, DurNs: 1234},
		{Kind: journal.KindRelease, Lock: "db", Agent: "cli-1", Session: 42, Token: 7},
		{Kind: journal.KindOwnerDead, Lock: "db", Session: 42, Token: 8},
		{Kind: journal.KindReconfig, Lock: "db", Policy: "spin", Sched: "priority"},
		{Kind: journal.KindSessionEnd, Session: 42},
	}
	for _, m := range cases {
		got, err := decodeMutation(appendMutation(nil, m, 123456789))
		if err != nil {
			t.Fatalf("decode %v: %v", m.Kind, err)
		}
		if got != m {
			t.Fatalf("round trip %v:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

func TestShadowReplayRebuildsAfterTruncation(t *testing.T) {
	mk := func(m lockd.Mutation, term uint64) logEntry {
		return logEntry{term: term, m: m}
	}
	log := []logEntry{
		mk(lockd.Mutation{Kind: journal.KindSessionOpen, Agent: "a", Session: 1, DurNs: 10}, 1),
		mk(lockd.Mutation{Kind: journal.KindAcquire, Lock: "x", Agent: "a", Session: 1, Token: 1}, 1),
		mk(lockd.Mutation{Kind: journal.KindRelease, Lock: "x", Agent: "a", Session: 1, Token: 1}, 1),
		mk(lockd.Mutation{Kind: journal.KindAcquire, Lock: "x", Agent: "a", Session: 1, Token: 2}, 2),
	}
	sh := replayShadow(newShadow(), log)
	if lk := sh.locks["x"]; lk.fence != 2 || lk.holderToken != 2 {
		t.Fatalf("full replay: %+v, want fence 2 held", lk)
	}
	// Cut the uncommitted suffix (term-2 grant) and replay: the hold is
	// gone, the floor drops back to what term 1 established.
	sh = replayShadow(newShadow(), log[:3])
	if lk := sh.locks["x"]; lk.fence != 1 || lk.holderToken != 0 {
		t.Fatalf("truncated replay: %+v, want fence 1 free", lk)
	}
	// From a base holding the first two entries, replaying the third
	// rebuilds the same state, and leaves the base untouched.
	base := replayShadow(newShadow(), log[:2])
	if got, want := replayShadow(base, log[2:3]).snapshot(0), sh.snapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay from base: %+v, want %+v", got, want)
	}
	if lk := base.locks["x"]; lk.holderToken != 1 {
		t.Fatalf("replay changed its base: %+v", lk)
	}
}

// TestElectionDelayCachedPerTerm: every learner's lease-loop tick asks
// for the election delay. It is computed once per term: the cached value
// matches a fresh computation, and asking again allocates nothing.
func TestElectionDelayCachedPerTerm(t *testing.T) {
	n := &Node{cfg: Config{ID: 2, Seed: 7}, lease: 90 * time.Millisecond, clusterIDs: []int{1, 2, 3, 4, 5}}
	seen := map[time.Duration]bool{}
	for term := uint64(0); term < 8; term++ {
		n.term = term
		cached := n.electionDelayLocked()
		if allocs := testing.AllocsPerRun(20, func() { n.electionDelayLocked() }); allocs != 0 {
			t.Fatalf("term %d: repeated call allocates %v times", term, allocs)
		}
		n.delayFor = 0 // drop the cache
		if fresh := n.electionDelayLocked(); cached != fresh {
			t.Fatalf("term %d: cached delay %v, fresh computation %v", term, cached, fresh)
		}
		seen[cached] = true
	}
	if len(seen) < 2 {
		t.Fatalf("delay never varied across terms: %v", seen)
	}
}
