// Package replica turns a set of lockd servers into a leader/learner
// replicated cluster, so the lock service survives the death of the
// machine serving it — the robustness axis of the paper's configurable
// locks carried one level further than a single server's lease sweeps.
//
// The design is a deliberately small lease-and-log protocol (a Raft
// subset shaped to the lock service's needs):
//
//   - One leader serves clients; every state mutation (session open,
//     grant, release, expiry, reconfigure) is appended to an ordered
//     replication log and acknowledged by a quorum BEFORE the client
//     sees the ack, so a promoted learner always resumes with a token
//     floor >= anything ever granted — fencing-token monotonicity
//     survives the failover.
//   - The leader runs one replicator goroutine per peer for its term.
//     A replicator ships everything its peer has not yet received in
//     one append (group commit), keeps at most one append in flight,
//     and sends an empty heartbeat only after lease/4 without a send.
//     Each peer's match index is the log prefix it has acknowledged;
//     the commit index is the quorum-th highest match, the leader
//     counting its whole log. Propose appends, wakes the replicators
//     and waits for the commit index to cover its entry — the release
//     work of the paper's active lock, handed to dedicated servers
//     instead of done by each caller in turn.
//   - Leadership is a lease, renewed per ack: it runs one lease
//     interval from the send time of the quorum-th freshest acked
//     append, so it never outlives the acks that back it. A leader
//     that cannot reach a quorum stops serving when the lease runs out
//     (lockd's gate answers NotLeader) and fences its own sessions, so
//     a partitioned ex-leader can never mint grants against state a
//     newer term owns.
//   - Elections are deterministic under a seed: candidates for term T
//     delay by their position in a seeded permutation of the member
//     ids, spaced half a lease apart, so the same seed and the same
//     fault script elect the same leaders in the same order — chaos
//     runs are reproducible, not merely convergent.
//   - Log consistency is Raft's: appends carry (PrevIndex, PrevTerm);
//     learners reject mismatches and the leader backs its cursor up
//     until the logs agree, truncating a deposed leader's uncommitted
//     suffix. Votes carry (LastTerm, LogLen) so a candidate missing
//     acknowledged entries cannot win. As in Raft, a leader advances
//     its commit index only over an entry of its own term.
//   - The log is bounded. Indexes are absolute; every node keeps a
//     snapshot base — the state after the first baseIndex entries —
//     and folds each entry into it once, as the commit index passes it
//     (appends carry the leader's commit index to learners). Once a
//     chunk of entries is folded, they are cut from the front of the
//     log in place, so the retained log reuses one backing array. The
//     leader folds only what every peer holds, until its log exceeds a
//     fixed cap: then it folds to its commit index anyway, so a peer cut
//     off from it cannot make the log grow without bound. A peer whose
//     next entry has been cut is sent the base instead (repl-snapshot):
//     the state rendered as synthetic mutations in the log's own
//     format. Installing it replaces the learner's base and echoes
//     nothing into its journal. A node promoted to leader serves the
//     base plus the entries after it.
//
// Every node's log holds mutations, never bytes. On the wire an entry
// is the journal's CRC-framed binary record format
// (journal.AppendRecordFrames) inside a binary peer frame
// (lockd.PeerRequest): a replicated mutation IS a journal record in
// flight. The leader encodes an entry's frames only as it ships them,
// straight into the peer link's reused write buffer, and learners
// decode each entry straight out of the frame they read. Learners echo
// applied entries into their own journals, so the merged journals of a
// whole cluster replay into one verifiable history (journal.Verify's
// replicated mode).
package replica

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/hlc"
	"repro/internal/journal"
	"repro/internal/lockd"
	"repro/internal/telemetry"
)

// Role is a node's place in the cluster.
type Role int

const (
	// RoleLearner follows the leader's log and waits to be needed.
	RoleLearner Role = iota
	// RoleCandidate is mid-election for a new term.
	RoleCandidate
	// RoleLeader serves clients under a live lease.
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleLearner:
		return "learner"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// Transition is one observed leadership change. Every node keeps its
// trace of them; chaos tests assert that the same seed and the same
// fault script produce identical traces run over run.
type Transition struct {
	Term   uint64
	Leader int
}

// Compaction sizes. A node cuts its folded prefix once it spans
// compactChunk entries; the leader stops waiting for its slowest peer
// once its retained log exceeds compactCapChunks chunks.
const (
	defaultCompactChunk = 1024
	compactCapChunks    = 8
)

// compactChunk is defaultCompactChunk, and snapshotPiece the most
// mutations one repl-snapshot message carries: a mutation takes at most
// ~230 bytes of a peer frame (three 72-byte record frames and its
// head), so 1024 keep a piece far inside the 1 MiB frame limit that a
// whole snapshot of ~5000 locks would pass. Tests lower both so that
// short runs compact and installs cross piece boundaries. maxAppend
// bounds an append the same way: a learner far behind catches up in
// appends of at most that many entries, not in one that outgrows the
// frame limit.
var compactChunk, snapshotPiece, maxAppend = defaultCompactChunk, 1024, 1024

// ErrNotLeader is Propose's answer on a non-leader.
var ErrNotLeader = errors.New("replica: not the leader")

// Config configures one replica node.
type Config struct {
	// ID is this node's replica id; must match its entry in the Peers
	// slice handed to Start.
	ID int
	// Lease is the leadership lease. A leader renews it from the send
	// time of the quorum-th freshest acked append; learners start
	// elections after it lapses with no leader contact. Default 1s.
	Lease time.Duration
	// Seed orders elections: every node must carry the same seed.
	Seed int64
	// Journal, when non-nil, receives an echo of every applied log
	// entry — the learner-side black box that makes merged cluster
	// journals verifiable.
	Journal *journal.Journal
	// Registry, when non-nil, exports the lockd_replica_* families.
	Registry *telemetry.Registry
	// Clock is this node's hybrid logical clock; share one instance with
	// the lockd server and journal of the same process so every surface
	// stamps from the same causal timeline. Default: hlc.Default.
	Clock *hlc.Clock
	// Logf receives progress lines (default: the standard logger).
	Logf func(format string, args ...any)
	// Dial, when non-nil, replaces net.DialTimeout for peer links —
	// the hook chaos tests use to interpose fault.Conn or a Breaker.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// Node is one replica. Create with New, hand to lockd.Serve as its
// Config.Replica, then Start once every cluster member is listening
// (two-phase because ":0" addresses exist only after Serve returns).
type Node struct {
	cfg   Config
	lease time.Duration
	logf  func(string, ...any)

	mu          sync.Mutex
	srv         *lockd.Server
	selfAddr    string
	clusterIDs  []int         // sorted, self included
	delay       time.Duration // cached election delay before standing for term delayFor
	delayFor    uint64        // 0 = nothing cached
	role        Role
	term        uint64
	votedTerm   uint64 // highest term this node has voted in
	votedFor    int
	leaderID    int
	leaderAddr  string
	lastLeader  time.Time // last valid leader/candidate contact
	leaseUntil  time.Time // leader only: lease expiry
	installed   bool      // leader only: the server holds the promoted state
	transitions []Transition
	elections   int64
	stepdowns   int64
	started     bool
	closed      bool

	// The log holds entries snapIndex+1 through lastIndex(); indexes are
	// absolute and 1-based, so a log length is the index of its last
	// entry. base is the state after entries 1 through baseIndex, each
	// folded in once as the commit index passed it: snapIndex <=
	// baseIndex <= commit. The state after the whole log is base plus
	// the entries after baseIndex (liveShadowLocked), built only when
	// this node is promoted. commit is the highest index known committed
	// (learners learn it from appends). recv collects a snapshot
	// arriving in pieces; installs counts snapshots installed.
	log       []logEntry
	snapIndex uint64
	snapTerm  uint64
	base      *shadow
	baseIndex uint64
	commit    uint64
	recv      *snapRecv
	installs  int64

	// Leader only, for the current term: one replicator per peer.
	// committed is broadcast whenever commit, role, term or closed may
	// have changed, and on every lease-loop tick so Propose can time out.
	repl      []*replicator
	committed *sync.Cond
	matchBuf  []uint64    // scratch for advanceLocked
	ackBuf    []time.Time // scratch for advanceLocked

	peers []*peerConn
	entry *telemetry.Entry

	// skewMu guards skew: per-peer clock-offset estimators fed by the
	// HLC/WallNs echoes on replication round trips (leader side only —
	// learners see the leader's clock through appends instead).
	skewMu sync.Mutex
	skew   map[int]*hlc.SkewEstimator

	stop chan struct{}
	wg   sync.WaitGroup
}

// New creates an inert node: it answers replication RPCs (via the lockd
// server it is configured into) but runs no election until Start.
func New(cfg Config) *Node {
	if cfg.Lease <= 0 {
		cfg.Lease = time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = hlc.Default
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	n := &Node{
		cfg:   cfg,
		lease: cfg.Lease,
		logf:  logf,
		base:  newShadow(),
		skew:  make(map[int]*hlc.SkewEstimator),
		stop:  make(chan struct{}),
	}
	n.committed = sync.NewCond(&n.mu)
	return n
}

// Start binds the node to its server and cluster and begins the lease
// loop. peers must list every member (self included, identified by
// Config.ID; its Addr is the address NotLeader redirects will name).
func (n *Node) Start(srv *lockd.Server, peers []Peer) {
	n.mu.Lock()
	n.srv = srv
	ids := make([]int, 0, len(peers))
	for _, p := range peers {
		ids = append(ids, p.ID)
		if p.ID == n.cfg.ID {
			n.selfAddr = p.Addr
			continue
		}
		n.peers = append(n.peers, &peerConn{id: p.ID, addr: p.Addr, dial: n.cfg.Dial})
	}
	sort.Ints(ids)
	n.clusterIDs = ids
	n.started = true
	n.lastLeader = time.Now()
	n.mu.Unlock()
	if n.cfg.Registry != nil {
		name := fmt.Sprintf("lockd-replica-%d", n.cfg.ID)
		n.entry = n.cfg.Registry.RegisterSource(name, "replica", n.telemetrySnapshot)
	}
	n.wg.Add(1)
	go n.run()
}

// Close stops the node's loops and closes its peer links. A leader's
// replicators exit without shipping what their peers still lack (an
// append already on the wire is waited out). It does NOT stop the lockd
// server. Idempotent; safe before Start.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	started := n.started
	n.committed.Broadcast()
	n.mu.Unlock()
	close(n.stop)
	if started {
		n.wg.Wait()
	}
	for _, p := range n.peers {
		p.close()
	}
	if n.entry != nil {
		n.entry.Close()
	}
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// LeaderAddr returns the last known leader address ("" mid-election).
func (n *Node) LeaderAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderAddr
}

// LogLen returns the replication log length: the index of the newest
// entry, counting the entries compacted away.
func (n *Node) LogLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return int(n.lastIndex())
}

// Transitions returns this node's observed leadership changes, in
// order.
func (n *Node) Transitions() []Transition {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Transition(nil), n.transitions...)
}

func (n *Node) quorumLocked() int { return len(n.clusterIDs)/2 + 1 }

// logEntry is one retained log entry: the term it was appended under
// and its mutation. Its wire form exists only while it is shipped.
type logEntry struct {
	term uint64
	m    lockd.Mutation
}

// lastIndex is the index of the newest log entry (0: none yet).
func (n *Node) lastIndex() uint64 { return n.snapIndex + uint64(len(n.log)) }

// termAt is the term of entry i, for snapIndex <= i <= lastIndex().
func (n *Node) termAt(i uint64) uint64 {
	if i == n.snapIndex {
		return n.snapTerm
	}
	return n.log[i-n.snapIndex-1].term
}

// liveShadowLocked builds the state after the whole log: the base plus
// the entries not yet folded into it.
func (n *Node) liveShadowLocked() *shadow {
	return replayShadow(n.base, n.log[n.baseIndex-n.snapIndex:])
}

// compactLocked folds entries baseIndex+1 through to into the base, and
// cuts the folded prefix from the log once it spans a chunk: the
// retained entries move to the front of the same backing array.
func (n *Node) compactLocked(to uint64) {
	for ; n.baseIndex < to; n.baseIndex++ {
		n.base.apply(n.log[n.baseIndex-n.snapIndex].m)
	}
	cut := n.baseIndex - n.snapIndex
	if cut < uint64(compactChunk) {
		return
	}
	n.snapTerm = n.termAt(n.baseIndex)
	k := copy(n.log, n.log[cut:])
	clear(n.log[k:])
	n.log = n.log[:k]
	n.snapIndex = n.baseIndex
}

// Gate implements lockd.Replica: leadership is only asserted while the
// lease is live, so a partitioned leader stops serving before a new
// term can start (lease intervals and election delays share the same
// base, and election delays add at least one full lease on top), and
// only once the server holds the promoted state: a request served
// before it would find held locks unbound and token floors unraised.
func (n *Node) Gate() lockd.ReplGate {
	n.mu.Lock()
	defer n.mu.Unlock()
	return lockd.ReplGate{
		Leader:     n.role == RoleLeader && n.installed && time.Now().Before(n.leaseUntil),
		Term:       n.term,
		LeaderAddr: n.leaderAddr,
	}
}

// Propose implements lockd.Replica: append the mutation to the log,
// wake the replicators and wait until the commit index covers it —
// success means a quorum of the cluster holds it. The wait gives up
// after lease/3, or as soon as the term or role changes. On failure the
// entry STAYS in the log (it may already sit on some learners) — the
// server neutralizes failed grants with a compensating release instead
// of un-appending, so no two histories can disagree about a token.
func (n *Node) Propose(m lockd.Mutation) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started || n.role != RoleLeader {
		return ErrNotLeader
	}
	// Stamp the mutation with this leader's HLC before it enters the
	// log: every learner that applies it merges the stamp, so the whole
	// cluster's clocks order the entry after everything the leader saw.
	if m.HLC == 0 {
		m.HLC = uint64(n.cfg.Clock.Now())
	}
	n.log = append(n.log, logEntry{term: n.term, m: m})
	idx, term := n.lastIndex(), n.term
	n.advanceLocked(time.Now()) // a one-node cluster commits here
	for _, r := range n.repl {
		r.poke()
	}
	deadline := time.Now().Add(n.lease / 3)
	for n.commit < idx {
		if n.closed || n.role != RoleLeader || n.term != term {
			return fmt.Errorf("replica: leadership of term %d lost before the mutation reached a quorum", term)
		}
		if !time.Now().Before(deadline) {
			held := 1 // self
			for _, r := range n.repl {
				if r.match >= idx {
					held++
				}
			}
			return fmt.Errorf("replica: mutation reached %d/%d nodes", held, n.quorumLocked())
		}
		n.committed.Wait()
	}
	return nil
}

// run is the lease loop: leaders step down on lease expiry and wake
// timed-out Proposes; learners elect after a quiet period.
func (n *Node) run() {
	defer n.wg.Done()
	tick := n.lease / 16
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		n.mu.Lock()
		role := n.role
		if role == RoleLeader {
			n.advanceLocked(now)
		}
		leaseUntil := n.leaseUntil
		elect := role != RoleLeader && now.Sub(n.lastLeader) >= n.electionDelayLocked()
		n.mu.Unlock()
		switch {
		case role == RoleLeader && now.After(leaseUntil):
			n.stepDown("leader lease expired without quorum")
		case elect:
			n.runElection()
		}
	}
}

// electionDelayLocked is this node's timeout before it stands for the
// NEXT term: one lease of patience, plus its position in the seeded
// permutation of member ids for that term, spaced half a lease apart.
// Every node computes the same permutation, so candidacies are ordered
// and well separated — the first live node in the permutation wins,
// deterministically for a given seed and fault script. The lease loop
// asks on every tick, so the delay is computed once per term.
func (n *Node) electionDelayLocked() time.Duration {
	if n.delayFor == n.term+1 {
		return n.delay
	}
	ids := append([]int(nil), n.clusterIDs...)
	seed := int64(uint64(n.cfg.Seed) ^ (n.term+1)*0x9e3779b97f4a7c15)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	pos := 0
	for i, id := range ids {
		if id == n.cfg.ID {
			pos = i
			break
		}
	}
	n.delay, n.delayFor = n.lease+time.Duration(pos)*(n.lease/2), n.term+1
	return n.delay
}

// runElection stands for term+1 and, on a quorum of votes, promotes
// this node: the replicated state (base plus the log after it) becomes
// the serving state.
func (n *Node) runElection() {
	n.mu.Lock()
	if n.role == RoleLeader || n.closed {
		n.mu.Unlock()
		return
	}
	n.term++
	term := n.term
	n.role = RoleCandidate
	n.votedTerm, n.votedFor = term, n.cfg.ID
	n.lastLeader = time.Now()
	n.elections++
	logLen := n.lastIndex()
	lastTerm := n.termAt(logLen)
	peers := n.peers
	self := n.selfAddr
	n.mu.Unlock()
	n.logf("replica %d: standing for term %d", n.cfg.ID, term)

	req := lockd.PeerRequest{
		Op:         lockd.OpReplVote,
		Term:       term,
		From:       n.cfg.ID,
		LeaderAddr: self,
		LogLen:     logLen,
		LastTerm:   lastTerm,
		HLC:        uint64(n.cfg.Clock.Now()),
	}
	start := time.Now()
	votes := 1 // self
	var maxTerm uint64
	var vmu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *peerConn) {
			defer wg.Done()
			req := req // call stamps the link's request id into it
			resp, err := p.call(&req, nil, 0, n.lease/2)
			if err != nil {
				return
			}
			n.cfg.Clock.Update(hlc.Time(resp.HLC))
			vmu.Lock()
			if resp.OK {
				votes++
			} else if resp.Term > maxTerm {
				maxTerm = resp.Term
			}
			vmu.Unlock()
		}(p)
	}
	wg.Wait()

	n.mu.Lock()
	if n.role != RoleCandidate || n.term != term {
		n.mu.Unlock()
		return
	}
	if maxTerm > term {
		// Outvoted by a higher term: adopt it so the next candidacy
		// outbids it, and go back to waiting.
		n.term = maxTerm
		n.role = RoleLearner
		n.lastLeader = time.Now()
		n.mu.Unlock()
		return
	}
	q := n.quorumLocked()
	if votes < q {
		n.role = RoleLearner
		n.mu.Unlock()
		n.logf("replica %d: lost election for term %d (%d/%d votes)", n.cfg.ID, term, votes, q)
		return
	}
	n.role, n.installed = RoleLeader, false
	n.leaderID, n.leaderAddr = n.cfg.ID, n.selfAddr
	// The vote quorum backs the first lease interval.
	n.leaseUntil = start.Add(n.lease)
	n.repl = make([]*replicator, 0, len(n.peers))
	for _, p := range n.peers {
		n.repl = append(n.repl, &replicator{
			p:    p,
			term: term,
			next: n.lastIndex(),
			wake: make(chan struct{}, 1),
		})
	}
	repl := n.repl
	n.wg.Add(len(repl))
	st := n.liveShadowLocked().snapshot(term)
	n.transitions = append(n.transitions, Transition{Term: term, Leader: n.cfg.ID})
	srv := n.srv
	n.mu.Unlock()
	n.logf("replica %d: won term %d (%d/%d votes), installing %d session(s), %d lock(s)",
		n.cfg.ID, term, votes, q, len(st.Sessions), len(st.Locks))
	if srv != nil {
		srv.InstallReplicaState(st)
	}
	n.mu.Lock()
	n.installed = n.role == RoleLeader && n.term == term
	n.mu.Unlock()
	// A replicator's first send is an immediate heartbeat, so learners
	// learn the new leader's address before clients get redirected.
	for _, r := range repl {
		go n.replicate(r)
	}
}

// stepDown demotes a leader whose lease ran out: sessions are fenced so
// this side of a partition can never serve stale grants.
func (n *Node) stepDown(reason string) {
	n.mu.Lock()
	if n.role != RoleLeader {
		n.mu.Unlock()
		return
	}
	n.demoteLocked()
	srv := n.srv
	n.mu.Unlock()
	n.logf("replica %d: stepping down: %s", n.cfg.ID, reason)
	if srv != nil {
		srv.FenceSessions(reason)
	}
}

// demoteLocked turns the leader into a learner and ends its term.
func (n *Node) demoteLocked() {
	n.role = RoleLearner
	n.leaderID, n.leaderAddr = 0, ""
	n.lastLeader = time.Now()
	n.stepdowns++
	n.endTermLocked()
}

// endTermLocked ends this node's leadership of its term: replicators
// wake to find the term over and exit, and waiting Proposes fail now
// instead of at their deadline.
func (n *Node) endTermLocked() {
	for _, r := range n.repl {
		r.poke()
	}
	n.repl = nil
	n.committed.Broadcast()
}

// replicator is the leader's per-peer state for one term. Its fields
// are guarded by Node.mu; its goroutine (replicate) is the only writer
// of next, match, lastSend and ackSent.
type replicator struct {
	p        *peerConn
	term     uint64
	next     uint64    // log length the peer is taken to hold: the next send starts after it
	match    uint64    // log prefix the peer has acknowledged
	lastSend time.Time // send time of the latest append
	ackSent  time.Time // send time of the latest acked append
	wake     chan struct{}
}

// poke wakes the replicator without blocking; one pending wake-up
// covers any number of log appends.
func (r *replicator) poke() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// replicate is one peer's replicator for one term. Each pass ships the
// peer everything past its next cursor in one append and waits for the
// answer, so appends made while one is in flight go out together in the
// next. With nothing to ship it sleeps until a Propose pokes it or the
// peer has gone lease/4 without a send, when it sends an empty
// heartbeat. A peer whose next entry has been compacted away is sent
// the snapshot base instead. A failed send is retried after lease/16.
// Close ends it once its send in flight, if any, returns.
func (n *Node) replicate(r *replicator) {
	defer n.wg.Done()
	heartbeat := n.lease / 4
	retry := n.lease / 16
	if retry < time.Millisecond {
		retry = time.Millisecond
	}
	timer := time.NewTimer(heartbeat)
	defer timer.Stop()
	var batch []logEntry // reused across appends
	var retryAt time.Time
	for {
		n.mu.Lock()
		if n.closed || n.role != RoleLeader || n.term != r.term {
			n.mu.Unlock()
			return
		}
		now := time.Now()
		last := n.lastIndex()
		ni := min(r.next, last)
		var wait time.Duration
		switch {
		case now.Before(retryAt):
			wait = retryAt.Sub(now)
		case ni == last:
			wait = heartbeat - now.Sub(r.lastSend)
		}
		if wait > 0 {
			n.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-n.stop:
			case <-r.wake:
			case <-timer.C:
			}
			continue
		}
		var (
			resp  lockd.Response
			err   error
			acked uint64 // the prefix the peer holds if it answers OK
		)
		snap := ni < n.snapIndex
		sentNs := n.cfg.Clock.PhysNow()
		if snap {
			acked = n.baseIndex
			term, muts := n.termAt(acked), n.base.render()
			r.next, r.lastSend = acked, now
			n.mu.Unlock()
			resp, err = n.sendSnapshot(r, acked, term, muts)
		} else {
			prevTerm := n.termAt(ni)
			end := min(last, ni+uint64(maxAppend))
			// Copy the entries out: a later term may truncate the log, and
			// compaction moves it, under a slice of it while this append
			// is on the wire. Their frames are encoded outside the lock.
			batch = append(batch[:0], n.log[ni-n.snapIndex:end-n.snapIndex]...)
			acked = end
			r.next, r.lastSend = end, now
			commit := n.commit
			n.mu.Unlock()
			resp, err = r.p.call(&lockd.PeerRequest{
				Op:         lockd.OpReplAppend,
				Term:       r.term,
				From:       n.cfg.ID,
				LeaderAddr: n.selfAddr,
				PrevIndex:  ni,
				PrevTerm:   prevTerm,
				Commit:     commit,
				HLC:        uint64(n.cfg.Clock.Now()),
			}, batch, sentNs, n.lease/3)
		}
		if err == nil {
			n.cfg.Clock.Update(hlc.Time(resp.HLC))
			if resp.WallNs != 0 {
				// The peer's raw wall clock, bracketed by our send and
				// receive instants: one skew sample per append.
				n.skewSample(r.p.id, sentNs, n.cfg.Clock.PhysNow(), resp.WallNs)
			}
		}
		n.mu.Lock()
		switch {
		case n.role != RoleLeader || n.term != r.term:
		case err != nil:
			// The peer may or may not hold the batch; resending it is
			// harmless (learners skip entries they already hold).
			r.next = ni
			retryAt = time.Now().Add(retry)
		case resp.OK:
			r.match = max(r.match, acked)
			if now.After(r.ackSent) {
				r.ackSent = now
			}
			n.advanceLocked(time.Now())
		case resp.Term > r.term:
			// A peer has seen a newer term: adopt it and step down.
			n.term = resp.Term
			n.demoteLocked()
			srv := n.srv
			n.mu.Unlock()
			reason := fmt.Sprintf("superseded by term %d", resp.Term)
			n.logf("replica %d: demoted: %s", n.cfg.ID, reason)
			if srv != nil {
				srv.FenceSessions(reason)
			}
			return
		case snap:
			// The peer dropped a piece: send the snapshot again.
			r.next = ni
			retryAt = time.Now().Add(retry)
		default:
			// Consistency reject: NextIndex is the peer's resend cursor.
			r.next = resp.NextIndex
		}
		n.mu.Unlock()
	}
}

// sendSnapshot ships the state at log index idx, of term term, rendered
// as muts, in pieces of at most snapshotPiece mutations. It returns the
// answer to the last piece, or to the first that failed.
func (n *Node) sendSnapshot(r *replicator, idx, term uint64, muts []lockd.Mutation) (lockd.Response, error) {
	atNs := n.cfg.Clock.PhysNow()
	ents := make([]logEntry, len(muts))
	for i, m := range muts {
		ents[i] = logEntry{term: term, m: m}
	}
	for off := 0; ; off += snapshotPiece {
		end := min(off+snapshotPiece, len(ents))
		resp, err := r.p.call(&lockd.PeerRequest{
			Op:         lockd.OpReplSnapshot,
			Term:       r.term,
			From:       n.cfg.ID,
			LeaderAddr: n.selfAddr,
			PrevIndex:  idx,
			PrevTerm:   term,
			Offset:     uint64(off),
			Done:       end == len(ents),
			HLC:        uint64(n.cfg.Clock.Now()),
		}, ents[off:end], atNs, n.lease/3)
		if err != nil || !resp.OK || end == len(ents) {
			return resp, err
		}
	}
}

// advanceLocked recomputes the leader's commit index (the quorum-th
// highest match, self counting its whole log, over an entry of this
// term) and lease (one interval from the send time of the quorum-th
// freshest acked append, self counting as now), folds into the base
// what every peer holds, and wakes waiting Proposes.
func (n *Node) advanceLocked(now time.Time) {
	q := n.quorumLocked()
	n.matchBuf = append(n.matchBuf[:0], n.lastIndex())
	n.ackBuf = n.ackBuf[:0]
	for _, r := range n.repl {
		n.matchBuf = append(n.matchBuf, r.match)
		n.ackBuf = append(n.ackBuf, r.ackSent)
	}
	if len(n.matchBuf) >= q {
		slices.Sort(n.matchBuf)
		// Raft's commit rule: an older term's entry is committed only by
		// an entry of this term after it, never by counting its copies.
		if c := n.matchBuf[len(n.matchBuf)-q]; c > n.commit && n.termAt(c) == n.term {
			n.commit = c
		}
	}
	renewed := now
	if q > 1 {
		renewed = time.Time{}
		if len(n.ackBuf) >= q-1 {
			slices.SortFunc(n.ackBuf, time.Time.Compare)
			renewed = n.ackBuf[len(n.ackBuf)-(q-1)]
		}
	}
	if !renewed.IsZero() {
		if u := renewed.Add(n.lease); u.After(n.leaseUntil) {
			n.leaseUntil = u
		}
	}
	// Fold only what every peer holds, so none needs a snapshot — until
	// the retained log passes its cap: then fold to commit regardless.
	to := n.commit
	if n.lastIndex()-n.snapIndex <= uint64(compactCapChunks*compactChunk) {
		for _, r := range n.repl {
			to = min(to, r.match)
		}
	}
	n.compactLocked(to)
	n.committed.Broadcast()
}

// HandleRepl implements lockd.Replica: the server hands peer RPCs here.
// req and its entries' frames are the connection's and valid only for
// the call, so nothing here keeps a reference to them.
func (n *Node) HandleRepl(req *lockd.PeerRequest) lockd.Response {
	switch req.Op {
	case lockd.OpReplVote:
		return n.handleVote(req)
	case lockd.OpReplAppend, lockd.OpReplSnapshot:
		return n.follow(req)
	}
	return lockd.Response{ID: req.ID, Code: lockd.CodeBadRequest, Err: "replica: unknown op " + req.Op}
}

// handleVote grants at most one vote per term, and only to candidates
// whose log is at least as complete as ours — the election-safety half
// of token monotonicity.
func (n *Node) handleVote(req *lockd.PeerRequest) lockd.Response {
	n.cfg.Clock.Update(hlc.Time(req.HLC))
	n.mu.Lock()
	resp := lockd.Response{ID: req.ID}
	if req.Term < n.term {
		resp.Term = n.term
		n.mu.Unlock()
		return resp
	}
	wasLeader := n.role == RoleLeader
	if req.Term > n.term {
		n.term = req.Term
		n.role = RoleLearner
	}
	resp.Term = n.term
	myLen := n.lastIndex()
	myLast := n.termAt(myLen)
	upToDate := req.LastTerm > myLast || (req.LastTerm == myLast && req.LogLen >= myLen)
	if n.votedTerm < req.Term && upToDate {
		n.votedTerm, n.votedFor = req.Term, req.From
		n.lastLeader = time.Now() // a granted vote restarts our patience
		resp.OK = true
	}
	demoted := wasLeader && n.role != RoleLeader
	if demoted {
		n.leaderID, n.leaderAddr = 0, ""
		n.stepdowns++
		n.endTermLocked()
	}
	srv := n.srv
	n.mu.Unlock()
	if demoted {
		n.logf("replica %d: demoted by election for term %d", n.cfg.ID, req.Term)
		if srv != nil {
			srv.FenceSessions(fmt.Sprintf("election for term %d", req.Term))
		}
	}
	return resp
}

// follow answers the leader's appends and snapshot pieces: adopt its
// term and leadership, apply the request (appendLocked or
// snapshotLocked), and demote this node if it was leading.
func (n *Node) follow(req *lockd.PeerRequest) lockd.Response {
	n.cfg.Clock.Update(hlc.Time(req.HLC))
	n.mu.Lock()
	resp := lockd.Response{ID: req.ID}
	if req.Term < n.term {
		resp.Term = n.term
		n.mu.Unlock()
		return resp
	}
	wasLeader := n.role == RoleLeader && req.From != n.cfg.ID
	n.term = req.Term
	n.role = RoleLearner
	n.leaderID, n.leaderAddr = req.From, req.LeaderAddr
	n.lastLeader = time.Now()
	resp.Term = n.term
	tr := Transition{Term: req.Term, Leader: req.From}
	if len(n.transitions) == 0 || n.transitions[len(n.transitions)-1] != tr {
		n.transitions = append(n.transitions, tr)
	}
	if req.Op == lockd.OpReplSnapshot {
		n.snapshotLocked(req, &resp)
	} else {
		n.appendLocked(req, &resp)
	}
	if wasLeader {
		n.endTermLocked()
	}
	srv := n.srv
	n.mu.Unlock()
	if wasLeader {
		n.logf("replica %d: demoted by leader %d (term %d)", n.cfg.ID, req.From, req.Term)
		if srv != nil {
			srv.FenceSessions(fmt.Sprintf("superseded by leader %d term %d", req.From, req.Term))
		}
	}
	return resp
}

// appendLocked checks (PrevIndex, PrevTerm) consistency, cuts any
// conflicting suffix, appends what is genuinely new (decoded straight
// out of the frame: the log keeps the mutations, not the bytes), echoes
// it into the local journal, and folds what the leader's commit index
// covers.
func (n *Node) appendLocked(req *lockd.PeerRequest, resp *lockd.Response) {
	last := n.lastIndex()
	switch {
	case req.PrevIndex > last:
		// We are missing entries before this batch: back the leader up.
		resp.NextIndex = last
		return
	case req.PrevIndex >= n.snapIndex && n.termAt(req.PrevIndex) != req.PrevTerm:
		// The entry before the batch disagrees: back up past it.
		resp.NextIndex = req.PrevIndex - 1
		return
	}
	idx, ents := req.PrevIndex, req.Entries
	if idx < n.snapIndex {
		// Entries through snapIndex are committed, so they match the
		// leader's: skip those already compacted away.
		k := min(n.snapIndex-idx, uint64(len(ents)))
		idx, ents = idx+k, ents[k:]
	}
	// Skip what we already hold (same index, same term): re-sent
	// batches after a lost ack must not re-apply.
	for len(ents) > 0 && idx < last && n.termAt(idx+1) == ents[0].Term {
		idx++
		ents = ents[1:]
	}
	if len(ents) > 0 && idx < last {
		if idx < n.baseIndex {
			// A leader never disagrees with a committed entry; refuse
			// rather than unwind the base.
			n.logf("replica %d: append conflicts at committed index %d", n.cfg.ID, idx+1)
			resp.NextIndex = last
			return
		}
		// Conflicting suffix from a deposed leader: cut it.
		k := idx - n.snapIndex
		clear(n.log[k:])
		n.log = n.log[:k]
	}
	for _, e := range ents {
		m, err := decodeMutation(e.Frames)
		n.log = append(n.log, logEntry{term: e.Term, m: m})
		if err != nil {
			n.logf("replica %d: undecodable log entry %d: %v", n.cfg.ID, n.lastIndex(), err)
			continue
		}
		n.journalApply(m)
	}
	resp.OK = true
	resp.NextIndex = n.lastIndex()
	// The log now matches the leader's through the end of the batch, so
	// the leader's commit index holds for it that far.
	n.commit = max(n.commit, min(req.Commit, req.PrevIndex+uint64(len(req.Entries))))
	n.compactLocked(n.commit)
}

// snapRecv is a snapshot arriving in pieces: the log position it
// stands for, the mutations applied so far, and the state they built.
type snapRecv struct {
	index, term, n uint64
	sh             *shadow
}

// snapshotLocked applies one piece of the leader's snapshot; the last
// piece installs it. A piece out of order drops what was collected, and
// the leader starts over.
func (n *Node) snapshotLocked(req *lockd.PeerRequest, resp *lockd.Response) {
	defer func() { resp.NextIndex = n.lastIndex() }()
	if req.Offset == 0 {
		n.recv = &snapRecv{index: req.PrevIndex, term: req.PrevTerm, sh: newShadow()}
	}
	rc := n.recv
	if rc == nil || rc.index != req.PrevIndex || rc.term != req.PrevTerm || rc.n != req.Offset {
		n.recv = nil
		return
	}
	for _, e := range req.Entries {
		m, err := decodeMutation(e.Frames)
		if err != nil {
			n.logf("replica %d: undecodable snapshot entry %d: %v", n.cfg.ID, rc.n, err)
			n.recv = nil
			return
		}
		rc.sh.apply(m)
		rc.n++
	}
	resp.OK = true
	if req.Done {
		n.recv = nil
		n.installLocked(rc.index, rc.term, rc.sh)
	}
}

// installLocked makes sh, the leader's state at log index idx of term
// term, this node's base. Retained entries after idx survive if entry
// idx has that term; otherwise the whole log goes. Nothing reaches the
// journal: the snapshot's synthetic mutations are state, not history.
func (n *Node) installLocked(idx, term uint64, sh *shadow) {
	if idx <= n.baseIndex {
		return // folded already
	}
	keep := 0
	if idx <= n.lastIndex() && n.termAt(idx) == term {
		keep = copy(n.log, n.log[idx-n.snapIndex:])
	}
	clear(n.log[keep:])
	n.log = n.log[:keep]
	n.snapIndex, n.snapTerm = idx, term
	n.base, n.baseIndex = sh, idx
	n.commit = max(n.commit, idx)
	n.installs++
}

// journalApply echoes an applied log entry into this node's journal,
// stamped with apply time: the learner's black box of the replicated
// history. journal.Verify's replicated mode dedups these echoes against
// the leader's own records.
func (n *Node) journalApply(m lockd.Mutation) {
	j := n.cfg.Journal
	if j == nil {
		return
	}
	// Merge the entry's stamp before minting the echo's, so the echo
	// always orders after the leader-side original — HLC-keyed merges
	// then render replicated pairs in shipping order even when this
	// node's wall clock runs behind the leader's.
	n.cfg.Clock.Update(hlc.Time(m.HLC))
	rec := journal.Record{
		Kind:   m.Kind,
		Origin: journal.OriginLockd,
		AtNs:   n.cfg.Clock.PhysNow(),
		HLC:    n.cfg.Clock.Now(),
		DurNs:  m.DurNs,
		Token:  m.Token,
		Tag:    m.Session,
		Trace:  m.Trace,
	}
	if m.Lock != "" {
		rec.Lock = j.InternLock(m.Lock)
	}
	if m.Agent != "" {
		rec.Agent = j.InternAgent(m.Agent)
	}
	j.Append(rec)
}

// skewSample feeds one replication round trip into the peer's offset
// estimator: the peer's raw wall clock (remoteNs) bracketed by this
// node's send and receive instants bounds its offset to an RTT-wide
// interval (see hlc.SkewEstimator).
func (n *Node) skewSample(peer int, sentNs, recvNs, remoteNs int64) {
	n.skewMu.Lock()
	est := n.skew[peer]
	if est == nil {
		est = &hlc.SkewEstimator{}
		n.skew[peer] = est
	}
	est.AddSample(sentNs, recvNs, remoteNs)
	n.skewMu.Unlock()
}

// SkewNs returns the estimated per-peer clock offsets in nanoseconds
// (peer wall clock minus ours), keyed by replica id. Only peers this
// node has completed replication round trips with appear — in practice
// that means a current or recent leader's view of its learners.
func (n *Node) SkewNs() map[int]int64 {
	n.skewMu.Lock()
	defer n.skewMu.Unlock()
	out := make(map[int]int64, len(n.skew))
	for id, est := range n.skew {
		if off, ok := est.Offset(); ok {
			out[id] = off
		}
	}
	return out
}

// telemetrySnapshot is the registry pull for the lockd_replica_*
// families.
func (n *Node) telemetrySnapshot() telemetry.LockSnapshot {
	n.mu.Lock()
	role, term := n.role, n.term
	logLen, retained, snapIndex := n.lastIndex(), len(n.log), n.snapIndex
	var lag uint64
	for _, r := range n.repl {
		lag = max(lag, logLen-r.match)
	}
	elections, stepdowns, installs := n.elections, n.stepdowns, n.installs
	n.mu.Unlock()
	skew := n.SkewNs()
	peers := make([]int, 0, len(skew))
	for id := range skew {
		peers = append(peers, id)
	}
	sort.Ints(peers)
	snap := telemetry.LockSnapshot{
		Name: fmt.Sprintf("lockd-replica-%d", n.cfg.ID),
		Impl: "replica",
		Extra: []telemetry.ExtraPoint{
			{Name: "lockd_replica_role", Help: "Replica role: 0 learner, 1 candidate, 2 leader.",
				Gauge: true, Value: int64(role)},
			{Name: "lockd_replica_term", Help: "Current replication term.",
				Gauge: true, Value: int64(term)},
			{Name: "lockd_replica_log_len", Help: "Replication log length in entries, compacted ones included (the newest entry's index).",
				Gauge: true, Value: int64(logLen)},
			{Name: "lockd_replica_log_retained", Help: "Replication log entries held in memory (not yet compacted into the snapshot base).",
				Gauge: true, Value: int64(retained)},
			{Name: "lockd_replica_snapshot_index", Help: "Index of the last log entry compacted into the snapshot base.",
				Gauge: true, Value: int64(snapIndex)},
			{Name: "lockd_replica_log_lag", Help: "Worst peer replication lag in entries not yet acknowledged (leader only).",
				Gauge: true, Value: int64(lag)},
			{Name: "lockd_replica_elections_total", Help: "Elections this node has started.",
				Value: elections},
			{Name: "lockd_replica_stepdowns_total", Help: "Times this node lost or gave up leadership.",
				Value: stepdowns},
			{Name: "lockd_replica_snapshot_installs_total", Help: "Leader snapshots this node installed after falling behind the leader's compacted log.",
				Value: installs},
		},
	}
	for _, id := range peers {
		snap.Extra = append(snap.Extra, telemetry.ExtraPoint{
			Name:   "lockd_clock_skew_ns",
			Help:   "Estimated peer wall-clock offset from this node in nanoseconds (positive: peer runs ahead).",
			Gauge:  true,
			Value:  skew[id],
			Labels: []telemetry.Label{{Name: "peer", Value: fmt.Sprintf("%d", id)}},
		})
	}
	return snap
}
