package journal

import (
	"testing"
)

// TestRecordFramesRoundTrip covers the self-contained frame codec the
// lockd replication log ships entries with.
func TestRecordFramesRoundTrip(t *testing.T) {
	rec := Record{
		Kind: KindAcquire, Origin: OriginLockd,
		AtNs: 123456, Seq: 7, DurNs: 42, Token: 9, Tag: 3, Trace: 11,
	}
	data := AppendRecordFrames(nil, rec, "orders", "client-2")
	if len(data) != 3*FrameSize {
		t.Fatalf("frame run length = %d, want %d", len(data), 3*FrameSize)
	}
	e, err := DecodeRecordFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if e.LockName != "orders" || e.AgentName != "client-2" {
		t.Fatalf("names lost: %+v", e)
	}
	if e.Kind != KindAcquire || e.Origin != OriginLockd || e.Token != 9 || e.Tag != 3 || e.AtNs != 123456 {
		t.Fatalf("record fields lost: %+v", e.Record)
	}
	// Appending leaves what the buffer held in place.
	if got := AppendRecordFrames([]byte("head"), rec, "orders", "client-2"); string(got[:4]) != "head" || string(got[4:]) != string(data) {
		t.Fatal("appending after a prefix changed the prefix or the frames")
	}

	// No agent: two frames only.
	data = AppendRecordFrames(nil, Record{Kind: KindSessionEnd, Tag: 5}, "orders", "")
	if len(data) != 2*FrameSize {
		t.Fatalf("agentless run length = %d, want %d", len(data), 2*FrameSize)
	}
	if e, err = DecodeRecordFrames(data); err != nil || e.AgentName != "" || e.Kind != KindSessionEnd {
		t.Fatalf("agentless decode: %+v err=%v", e, err)
	}

	// Damage a byte: CRC must reject.
	data[FrameSize+3] ^= 0xff
	if _, err := DecodeRecordFrames(data); err == nil {
		t.Fatal("corrupted frame run decoded without error")
	}
	if _, err := DecodeRecordFrames(data[:FrameSize+1]); err == nil {
		t.Fatal("non-multiple length accepted")
	}
	if _, err := DecodeRecordFrames(nil); err == nil {
		t.Fatal("empty run accepted")
	}
}

// lockdEntry builds one OriginLockd entry for the hand-built two-node
// histories below.
func lockdEntry(kind Kind, atNs int64, token uint64, agent string) Entry {
	return Entry{
		Record:    Record{Kind: kind, Origin: OriginLockd, AtNs: atNs, Token: token},
		LockName:  "shared",
		AgentName: agent,
	}
}

// TestVerifyReplicatedTwoNodeLog replays a leader failover as two
// replicas' journals: node-a grants and releases token 1, grants token
// 2 and dies mid-hold; node-b (which applied every mutation) fences the
// dead holder and re-grants in the new term. The duplicate tenures are
// replica echoes, not violations, and the cross-node invariants hold.
func TestVerifyReplicatedTwoNodeLog(t *testing.T) {
	nodeA := []Entry{
		lockdEntry(KindAcquire, 10, 1, "w1"),
		lockdEntry(KindRelease, 30, 1, "w1"),
		lockdEntry(KindAcquire, 50, 2, "w2"),
		// node-a dies here: no release for token 2 in its journal.
	}
	nodeB := []Entry{
		lockdEntry(KindAcquire, 11, 1, "w1"), // applied copy
		lockdEntry(KindRelease, 31, 1, "w1"), // applied copy
		lockdEntry(KindAcquire, 51, 2, "w2"), // applied copy
		lockdEntry(KindOwnerDead, 70, 2, "w2"),
		lockdEntry(KindAcquire, 80, 3, "w3"), // new term, higher token
		lockdEntry(KindRelease, 95, 3, "w3"),
	}
	rep := Verify([]ProcEntries{
		{Proc: "node-a", Entries: nodeA},
		{Proc: "node-b", Entries: nodeB},
	})
	if !rep.Ok() {
		t.Fatalf("clean replicated history flagged: %+v", rep.Violations)
	}
	if rep.ReplicatedLocks != 1 {
		t.Fatalf("ReplicatedLocks = %d, want 1 (%+v)", rep.ReplicatedLocks, rep)
	}
	if rep.ReplicaEchoes != 3 {
		t.Fatalf("ReplicaEchoes = %d, want 3 (%+v)", rep.ReplicaEchoes, rep)
	}
	if rep.Grants != 3 || rep.Releases != 2 || rep.ForcedDeaths != 1 {
		t.Fatalf("counts wrong: %+v", rep)
	}
	if len(rep.OpenHolds) != 0 {
		t.Fatalf("unexpected open holds: %+v", rep.OpenHolds)
	}
}

// TestVerifyReplicatedLateEchoAfterHeal replays a healed partition:
// node-b was cut off while node-a granted and released tokens 1 and 2,
// then caught up on the log and applied the whole history at much later
// timestamps. The late copies are echoes, not re-grants of retired
// tokens — but the same records appearing TWICE from one proc are.
func TestVerifyReplicatedLateEchoAfterHeal(t *testing.T) {
	nodeA := []Entry{
		lockdEntry(KindAcquire, 10, 1, "w1"),
		lockdEntry(KindRelease, 20, 1, "w1"),
		lockdEntry(KindAcquire, 30, 2, "w1"),
		lockdEntry(KindRelease, 40, 2, "w1"),
	}
	// node-b heals at t=100 and applies the backlog with apply-time
	// stamps, after every token has already retired.
	nodeB := []Entry{
		lockdEntry(KindAcquire, 100, 1, "w1"),
		lockdEntry(KindRelease, 101, 1, "w1"),
		lockdEntry(KindAcquire, 102, 2, "w1"),
		lockdEntry(KindRelease, 103, 2, "w1"),
	}
	rep := Verify([]ProcEntries{
		{Proc: "node-a", Entries: nodeA},
		{Proc: "node-b", Entries: nodeB},
	})
	if !rep.Ok() {
		t.Fatalf("late catch-up echoes flagged: %+v", rep.Violations)
	}
	if rep.ReplicaEchoes != 4 || rep.Grants != 2 {
		t.Fatalf("ReplicaEchoes = %d, Grants = %d, want 4 and 2 (%+v)",
			rep.ReplicaEchoes, rep.Grants, rep)
	}

	// The same grant landing twice in ONE proc's journal is not an
	// echo: that is a double grant of a retired token.
	rep = Verify([]ProcEntries{
		{Proc: "node-a", Entries: append(append([]Entry(nil), nodeA...),
			lockdEntry(KindAcquire, 60, 2, "w2"))},
		{Proc: "node-b", Entries: nodeB},
	})
	if rep.Ok() {
		t.Fatal("same-proc re-grant of a retired token not flagged")
	}
}

func TestVerifyReplicatedCatchesDualHolder(t *testing.T) {
	rep := Verify([]ProcEntries{
		{Proc: "node-a", Entries: []Entry{lockdEntry(KindAcquire, 10, 1, "w1")}},
		{Proc: "node-b", Entries: []Entry{lockdEntry(KindAcquire, 20, 2, "w2")}},
	})
	if rep.Ok() {
		t.Fatal("dual holder across replicas not flagged")
	}
}

func TestVerifyReplicatedCatchesTokenRegression(t *testing.T) {
	rep := Verify([]ProcEntries{
		{Proc: "node-a", Entries: []Entry{
			lockdEntry(KindAcquire, 10, 5, "w1"),
			lockdEntry(KindRelease, 20, 5, "w1"),
		}},
		{Proc: "node-b", Entries: []Entry{
			lockdEntry(KindAcquire, 10, 5, "w1"),
			lockdEntry(KindRelease, 20, 5, "w1"),
			// A promoted learner with a stale token floor re-mints low:
			lockdEntry(KindAcquire, 30, 4, "w2"),
		}},
	})
	if rep.Ok() {
		t.Fatal("cross-node token regression not flagged")
	}
}

// TestVerifyReplicatedLeavesClientViewsAlone mixes a replicated
// server-side history with a client-side journal of the same lock: the
// client's view keeps the per-process rules (its duplicate "grant"
// would otherwise trip the cross-node single-holder check).
func TestVerifyReplicatedLeavesClientViewsAlone(t *testing.T) {
	client := []Entry{
		{Record: Record{Kind: KindAcquire, Origin: OriginClient, AtNs: 12, Token: 1}, LockName: "shared", AgentName: "w1"},
		{Record: Record{Kind: KindRelease, Origin: OriginClient, AtNs: 28, Token: 1}, LockName: "shared", AgentName: "w1"},
	}
	rep := Verify([]ProcEntries{
		{Proc: "node-a", Entries: []Entry{
			lockdEntry(KindAcquire, 10, 1, "w1"),
			lockdEntry(KindRelease, 30, 1, "w1"),
		}},
		{Proc: "node-b", Entries: []Entry{
			lockdEntry(KindAcquire, 11, 1, "w1"),
			lockdEntry(KindRelease, 31, 1, "w1"),
		}},
		{Proc: "client", Entries: client},
	})
	if !rep.Ok() {
		t.Fatalf("client view misclassified: %+v", rep.Violations)
	}
	if rep.Grants != 2 { // 1 replicated + 1 client-side
		t.Fatalf("Grants = %d, want 2 (%+v)", rep.Grants, rep)
	}
}
