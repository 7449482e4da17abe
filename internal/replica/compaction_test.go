package replica

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/lockd"
)

// serviceMutations returns a random mutation sequence shaped like a
// lockd leader's log: sessions opened under fresh ids, grants at the
// lock's next token (now and then over a tenure whose end the log has
// not shown yet), releases by the holder, stale duplicate releases,
// owner deaths, burned tokens, reconfigurations and session ends.
func serviceMutations(r *rand.Rand, n int) []lockd.Mutation {
	sh := newShadow()
	locks := []string{"a", "b", "c", "d", "e"}
	out := make([]lockd.Mutation, 0, n)
	for len(out) < n {
		name := locks[r.Intn(len(locks))]
		lk := sh.lock(name)
		var m lockd.Mutation
		switch k := r.Intn(9); {
		case k == 0 || sh.lastSession == 0:
			id := sh.lastSession + 1
			m = lockd.Mutation{Kind: journal.KindSessionOpen, Session: id, Agent: fmt.Sprintf("cli-%d", id), DurNs: int64(time.Second)}
		case k == 1:
			m = lockd.Mutation{Kind: journal.KindSessionEnd, Session: 1 + uint64(r.Int63n(int64(sh.lastSession)))}
		case k <= 3:
			if lk.holderToken != 0 && r.Intn(4) != 0 {
				continue // grants normally wait for the release
			}
			s := 1 + uint64(r.Int63n(int64(sh.lastSession)))
			m = lockd.Mutation{Kind: journal.KindAcquire, Lock: name, Session: s, Agent: fmt.Sprintf("cli-%d", s), Token: lk.fence + 1}
		case k == 4:
			m = lockd.Mutation{Kind: journal.KindRelease, Lock: name, Session: lk.holderSession, Token: lk.holderToken}
		case k == 5:
			s := 1 + uint64(r.Int63n(int64(sh.lastSession)))
			m = lockd.Mutation{Kind: journal.KindRelease, Lock: name, Session: s, Token: uint64(r.Int63n(int64(lk.fence) + 1))}
		case k == 6:
			m = lockd.Mutation{Kind: journal.KindOwnerDead, Lock: name, Session: lk.holderSession, Token: lk.holderToken}
		case k == 7:
			m = lockd.Mutation{Kind: journal.KindRelease, Lock: name, Session: lk.holderSession, Token: lk.fence + 1}
		default:
			pol := []string{"", "spin", "sleep", "combined"}[r.Intn(4)]
			sched := []string{"fifo", "priority", "handoff"}[r.Intn(3)]
			if r.Intn(2) == 0 {
				sched = ""
			}
			m = lockd.Mutation{Kind: journal.KindReconfig, Lock: name, Policy: pol, Sched: sched}
		}
		sh.apply(m)
		out = append(out, m)
	}
	return out
}

// TestSnapshotRenderRoundTrip: for random service-shaped mutation
// sequences, the rendered snapshot, through the log's frame encoding,
// rebuilds exactly the state the sequence built.
func TestSnapshotRenderRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		sh := newShadow()
		for _, m := range serviceMutations(r, 1+r.Intn(80)) {
			sh.apply(m)
		}
		rebuilt := newShadow()
		for _, m := range sh.render() {
			back, err := decodeMutation(appendMutation(nil, m, 1))
			if err != nil {
				t.Fatalf("seed %d: decode rendered %+v: %v", seed, m, err)
			}
			rebuilt.apply(back)
		}
		if got, want := rebuilt.snapshot(7), sh.snapshot(7); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: rebuilt state\n%+v\nwant\n%+v", seed, got, want)
		}
	}
}

// TestCompactionBoundsLog: many chunks' worth of proposals leave every
// node's retained log within the cap and its backing array bounded,
// every node compacted, and every node agreeing on the absolute log
// length and, through its base plus its retained tail, on the state the
// proposals built.
func TestCompactionBoundsLog(t *testing.T) {
	c := startCluster(t, 3, 200*time.Millisecond, 3)
	li := c.waitLeader(5 * time.Second)
	leader := c.nodes[li]
	limit := compactCapChunks * compactChunk
	muts := serviceMutations(rand.New(rand.NewSource(9)), 20*limit)
	want := newShadow()
	for i, m := range muts {
		if err := leader.Propose(m); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		want.apply(m)
		for j, n := range c.nodes {
			n.mu.Lock()
			retained, capacity := len(n.log), cap(n.log)
			n.mu.Unlock()
			if retained > limit {
				t.Fatalf("after %d proposals node %d retains %d entries, cap %d", i+1, j+1, retained, limit)
			}
			// The cut reuses one backing array: it never grows past what
			// appending up to the cap needs.
			if capacity > 2*limit {
				t.Fatalf("after %d proposals node %d's log array holds %d slots", i+1, j+1, capacity)
			}
		}
	}
	waitFor(t, 3*time.Second, "every node to converge", func() bool { return c.converged(li) })
	if got := leader.LogLen(); got != len(muts) {
		t.Fatalf("leader LogLen = %d, want %d (absolute, compacted entries included)", got, len(muts))
	}
	for j, n := range c.nodes {
		n.mu.Lock()
		snapIndex, got := n.snapIndex, n.liveShadowLocked().snapshot(0)
		n.mu.Unlock()
		if snapIndex == 0 {
			t.Errorf("node %d never compacted", j+1)
		}
		if !reflect.DeepEqual(got, want.snapshot(0)) {
			t.Errorf("node %d base plus retained tail rebuild\n%+v\nwant\n%+v", j+1, got, want.snapshot(0))
		}
	}
}

// mutationKinds are the journal kinds a replication-log entry carries.
var mutationKinds = []journal.Kind{
	journal.KindSessionOpen, journal.KindSessionEnd, journal.KindAcquire,
	journal.KindRelease, journal.KindOwnerDead, journal.KindReconfig,
}

// FuzzDecodeMutation: decodeMutation never panics on arbitrary bytes,
// and appendMutation → decodeMutation round-trips every mutation kind
// whose names fit a frame, reconfig's "policy,sched" agent frame
// included.
func FuzzDecodeMutation(f *testing.F) {
	f.Add([]byte{}, uint8(0), "", "", uint64(0), uint64(0), uint64(0), int64(0), "", "", uint64(0))
	for i, k := range mutationKinds {
		m := lockd.Mutation{Kind: k, Lock: "hot-1", Agent: "cli-1", Session: 3, Token: 42, Trace: 7,
			DurNs: int64(time.Second), HLC: 115224746733543424}
		if k == journal.KindReconfig {
			m.Agent, m.Policy, m.Sched = "", "spin", "priority"
		}
		frames := appendMutation(nil, m, 1760848841123456789)
		f.Add(frames, uint8(i), m.Lock, m.Agent, m.Session, m.Token, m.Trace, m.DurNs, m.Policy, m.Sched, m.HLC)
		f.Add(frames[:len(frames)-1], uint8(i), "", "", uint64(0), uint64(0), uint64(0), int64(-1), "", ",", uint64(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8, lockName, agent string,
		session, token, trace uint64, dur int64, policy, sched string, hlc uint64) {
		decodeMutation(data) //nolint:errcheck // must only not panic

		m := lockd.Mutation{
			Kind: mutationKinds[int(kind)%len(mutationKinds)], Lock: lockName, Agent: agent,
			Session: session, Token: token, Trace: trace, DurNs: dur, HLC: hlc,
		}
		if m.Kind == journal.KindReconfig {
			if strings.Contains(policy, ",") || len(policy)+1+len(sched) > journal.MaxNameLen {
				return // not representable in one agent frame
			}
			m.Agent, m.Policy, m.Sched = "", policy, sched
		}
		if len(lockName) > journal.MaxNameLen || len(m.Agent) > journal.MaxNameLen {
			return // names are clipped to a frame
		}
		got, err := decodeMutation(appendMutation(nil, m, dur))
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip\n got %+v\nwant %+v", got, m)
		}
	})
}

// TestCommitOnlyOverOwnTerm: a leader counts copies only for an entry of
// its own term (Raft's rule). An older entry on a quorum may still be
// overwritten by a later leader, so committing it, and letting
// learners fold it into their bases, has to wait for an entry of this
// term after it.
func TestCommitOnlyOverOwnTerm(t *testing.T) {
	n := New(Config{ID: 1, Lease: time.Second})
	n.clusterIDs = []int{1, 2, 3}
	n.role, n.term = RoleLeader, 3
	for _, term := range []uint64{1, 2, 3} {
		n.log = append(n.log, logEntry{term: term})
	}
	peer := &replicator{match: 2}
	n.repl = []*replicator{peer, {}}
	n.advanceLocked(time.Now())
	if n.commit != 0 {
		t.Fatalf("commit = %d with only an older term's entry on a quorum, want 0", n.commit)
	}
	peer.match = 3
	n.advanceLocked(time.Now())
	if n.commit != 3 {
		t.Fatalf("commit = %d with this term's entry on a quorum, want 3", n.commit)
	}
}
