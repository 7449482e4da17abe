package journal

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/native"
)

// openTest opens a journal in a temp dir with a fast flush tick.
func openTest(t *testing.T, mutate func(*Config)) *Journal {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), FlushEvery: 5 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	j, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestRoundTrip(t *testing.T) {
	j := openTest(t, nil)
	lock := j.InternLock("orders")
	agent := j.InternAgent("worker-1")
	base := time.Now().UnixNano()
	j.Append(Record{Kind: KindWait, Origin: OriginNative, AtNs: base, Lock: lock, Agent: agent})
	j.Append(Record{Kind: KindAcquire, Origin: OriginNative, AtNs: base + 10, Lock: lock, Agent: agent, DurNs: 10, Token: 7, Trace: 0xabc})
	j.Append(Record{Kind: KindRelease, Origin: OriginNative, AtNs: base + 30, Lock: lock, Agent: agent, DurNs: 20, Token: 7})
	j.Flush()

	entries, infos, err := ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3: %+v", len(entries), entries)
	}
	if len(infos) != 1 || infos[0].Torn || infos[0].Corrupt {
		t.Fatalf("segment infos: %+v", infos)
	}
	e := entries[1]
	if e.Kind != KindAcquire || e.LockName != "orders" || e.AgentName != "worker-1" ||
		e.DurNs != 10 || e.Token != 7 || e.Trace != 0xabc || e.AtNs != base+10 {
		t.Fatalf("acquire entry mismatch: %+v", e)
	}
	if entries[0].Seq >= entries[1].Seq || entries[1].Seq >= entries[2].Seq {
		t.Fatalf("per-lock seq not increasing: %d %d %d", entries[0].Seq, entries[1].Seq, entries[2].Seq)
	}
	st := j.Stats()
	if st.Appended != 3 || st.Flushed != 3 || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRotationAndRetention(t *testing.T) {
	j := openTest(t, func(c *Config) {
		c.SegmentBytes = 8 * FrameSize // tiny: rotate every few records
		c.MaxSegments = 3
	})
	lock := j.InternLock("hot")
	for i := 0; i < 100; i++ {
		j.Append(Record{Kind: KindAcquire, AtNs: int64(i), Lock: lock})
		if i%10 == 0 {
			j.Flush() // force drains so rotation happens deterministically
		}
	}
	j.Flush()
	infos, err := ListSegments(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) > 3 {
		t.Fatalf("retention kept %d segments, want <= 3", len(infos))
	}
	if j.Stats().Rotations == 0 {
		t.Fatal("expected at least one rotation")
	}
	// Every surviving segment must be self-contained: records resolve
	// their lock name even though the name was interned long ago.
	entries, _, err := ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries survived retention")
	}
	for _, e := range entries {
		if e.LockName != "hot" {
			t.Fatalf("entry lost its name after rotation: %+v", e)
		}
	}
}

func TestRingOverflowDrops(t *testing.T) {
	j := openTest(t, func(c *Config) {
		c.ShardCap = 64
		c.Shards = 1
		c.FlushEvery = time.Hour // writer idle: ring must fill
	})
	lock := j.InternLock("spill")
	for i := 0; i < 200; i++ {
		j.Append(Record{Kind: KindAcquire, AtNs: int64(i), Lock: lock})
	}
	st := j.Stats()
	if st.Appended != 64 || st.Dropped != 136 {
		t.Fatalf("appended=%d dropped=%d, want 64/136", st.Appended, st.Dropped)
	}
	j.Flush()
	entries, _, err := ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var drops int64
	for _, e := range entries {
		if e.Kind == KindDrops {
			drops += e.DurNs
		}
	}
	if drops != 136 {
		t.Fatalf("drops marker carries %d, want 136", drops)
	}
}

// TestDropsMarkerPrecedesGap: when the writer drains records pushed
// after an overflow in the same pass as records pushed before it, the
// drops marker sits exactly between them, so a reader learns of the
// loss before it meets any record that followed it.
func TestDropsMarkerPrecedesGap(t *testing.T) {
	j := openTest(t, func(c *Config) {
		c.ShardCap = 64
		c.Shards = 1
		c.FlushEvery = time.Hour // the test drains by hand until Flush
	})
	lock := j.InternLock("gap")
	for i := 0; i < 64+5; i++ { // fill the ring, then lose 5
		j.Append(Record{Kind: KindAcquire, AtNs: int64(i), Lock: lock})
	}
	// Free room as a drain would, then push past the gap.
	var rec Record
	for i := 0; i < 10; i++ {
		if !j.shards[0].pop(&rec) {
			t.Fatal("ring unexpectedly empty")
		}
	}
	for i := 0; i < 10; i++ {
		j.Append(Record{Kind: KindAcquire, AtNs: int64(100 + i), Lock: lock})
	}
	j.Flush()
	entries, _, err := ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, e := range entries {
		switch {
		case e.Kind == KindDrops:
			order = append(order, fmt.Sprintf("drops(%d)", e.DurNs))
		case e.Seq == 63 || e.Seq == 64:
			order = append(order, fmt.Sprintf("seq%d", e.Seq))
		}
	}
	if got := strings.Join(order, " "); got != "seq63 drops(5) seq64" {
		t.Fatalf("journal order around the gap: %s, want seq63 drops(5) seq64", got)
	}
}

func TestConcurrentProducers(t *testing.T) {
	j := openTest(t, func(c *Config) { c.ShardCap = 1 << 14 })
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lock := j.InternLock("shared")
			for i := 0; i < per; i++ {
				j.Append(Record{Kind: KindAcquire, AtNs: int64(g*per + i), Lock: lock, Tag: uint64(g)})
			}
		}(g)
	}
	wg.Wait()
	j.Flush()
	entries, _, err := ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != goroutines*per {
		t.Fatalf("got %d entries, want %d (dropped=%d)", len(entries), goroutines*per, j.Stats().Dropped)
	}
	// Seq is the shard ring position: all records of one lock land in
	// one shard, so the sequence must be a permutation-free total order.
	seen := make(map[uint64]bool, len(entries))
	for _, e := range entries {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestNativeReleaseJournaledBeforeHandoff: two goroutines ping-pong
// one journaled native.Mutex. Each release must reach the journal before
// the next owner's grant, on the queued handoff and on the free-lock
// fast path alike, so Verify reads the history without a double grant.
// The sink pauses before journaling a release, as a sink that blocks
// briefly would, which widens the window in which a release emitted
// after the handoff loses the race to the next grant.
func TestNativeReleaseJournaledBeforeHandoff(t *testing.T) {
	j := openTest(t, func(c *Config) {
		c.ShardCap = 1 << 15 // room for every record: no drop relaxes Verify
		c.MaxSegments = -1
	})
	m := native.MustNew(native.CombinedPolicy, native.FIFO)
	m.SetEventSink(pausingSink{j.Sink("pingpong")})
	const goroutines, per = 2, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Lock()
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	j.Flush()
	if d := j.Stats().Dropped; d != 0 {
		t.Fatalf("journal dropped %d records; the check needs all of them", d)
	}
	entries, _, err := ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify([]ProcEntries{{Proc: "pingpong", Entries: entries}})
	if rep.Grants != goroutines*per || rep.Releases != goroutines*per {
		t.Fatalf("journaled %d grants and %d releases, want %d each", rep.Grants, rep.Releases, goroutines*per)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s (contended acquisitions: %d)",
			len(rep.Violations), rep.Violations[0], m.Stats().Contended)
	}
}

type pausingSink struct{ native.EventSink }

func (s pausingSink) LockEvent(e native.LockEvent) {
	if e.Kind == native.EventRelease {
		time.Sleep(20 * time.Microsecond)
	}
	s.EventSink.LockEvent(e)
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lock := j.InternLock("torn")
	for i := 0; i < 5; i++ {
		j.Append(Record{Kind: KindAcquire, AtNs: int64(i), Lock: lock, Token: uint64(i + 1)})
	}
	j.Flush()
	j.Close()

	infos, err := ListSegments(dir)
	if err != nil || len(infos) != 1 {
		t.Fatalf("segments: %v %v", infos, err)
	}
	path := infos[0].Path

	// Simulate a crash mid-write: truncate the file in the middle of the
	// last frame.
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-FrameSize/2); err != nil {
		t.Fatal(err)
	}
	entries, info, err := ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn {
		t.Fatalf("expected torn tail, got %+v", info)
	}
	if len(entries) != 4 { // 5 appended, last one torn off
		t.Fatalf("got %d entries after torn tail, want 4", len(entries))
	}

	// Corruption in place (bit flip inside a frame) must truncate at the
	// bad frame, keeping everything before it.
	data, _ := os.ReadFile(path)
	// Frame 0 is the lock-name frame, frames 1.. are events: flip a bit
	// in the third event (frame 3).
	data[segHeaderSize+3*FrameSize+8] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, info, err = ReadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Corrupt {
		t.Fatalf("expected corrupt flag, got %+v", info)
	}
	// Frames: name frame + 2 events survive before the flipped frame.
	if len(entries) != 2 {
		t.Fatalf("got %d entries before corruption, want 2", len(entries))
	}

	// Reopening the directory resumes at a fresh segment index and reads
	// cleanly alongside the damaged segment.
	j2, err := Open(Config{Dir: dir, FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	lock2 := j2.InternLock("torn")
	j2.Append(Record{Kind: KindRelease, AtNs: 99, Lock: lock2})
	j2.Flush()
	all, infos2, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos2) != 2 {
		t.Fatalf("want 2 segments after reopen, got %+v", infos2)
	}
	if infos2[1].Index <= infos2[0].Index {
		t.Fatalf("reopened segment index did not advance: %+v", infos2)
	}
	last := all[len(all)-1]
	if last.Kind != KindRelease || last.AtNs != 99 || last.LockName != "torn" {
		t.Fatalf("post-reopen entry mismatch: %+v", last)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	clean := []Entry{
		{Record: Record{Kind: KindAcquire, AtNs: 1, Token: 1}, LockName: "a", AgentName: "w1"},
		{Record: Record{Kind: KindRelease, AtNs: 2, Token: 1}, LockName: "a", AgentName: "w1"},
		{Record: Record{Kind: KindAcquire, AtNs: 3, Token: 2}, LockName: "a", AgentName: "w2"},
		{Record: Record{Kind: KindOwnerDead, AtNs: 4, Token: 2}, LockName: "a", AgentName: "w2"},
	}
	rep := Verify([]ProcEntries{{Proc: "p", Entries: clean}})
	if !rep.Ok() || rep.Grants != 2 || rep.Releases != 1 || rep.ForcedDeaths != 1 {
		t.Fatalf("clean history flagged: %+v", rep)
	}

	doubleGrant := []Entry{
		{Record: Record{Kind: KindAcquire, AtNs: 1, Token: 1}, LockName: "a", AgentName: "w1"},
		{Record: Record{Kind: KindAcquire, AtNs: 2, Token: 2}, LockName: "a", AgentName: "w2"},
	}
	if rep := Verify([]ProcEntries{{Proc: "p", Entries: doubleGrant}}); rep.Ok() {
		t.Fatal("double grant not flagged")
	}

	tokenRegress := []Entry{
		{Record: Record{Kind: KindAcquire, AtNs: 1, Token: 5}, LockName: "a", AgentName: "w1"},
		{Record: Record{Kind: KindRelease, AtNs: 2, Token: 5}, LockName: "a", AgentName: "w1"},
		{Record: Record{Kind: KindAcquire, AtNs: 3, Token: 5}, LockName: "a", AgentName: "w2"},
	}
	if rep := Verify([]ProcEntries{{Proc: "p", Entries: tokenRegress}}); rep.Ok() {
		t.Fatal("token regression not flagged")
	}

	orphanRelease := []Entry{
		{Record: Record{Kind: KindRelease, AtNs: 1}, LockName: "a", AgentName: "w1"},
	}
	if rep := Verify([]ProcEntries{{Proc: "p", Entries: orphanRelease}}); rep.Ok() {
		t.Fatal("orphan release not flagged")
	}
}

func TestGraphAtReplay(t *testing.T) {
	timeline := Merge([]ProcEntries{{Proc: "p", Entries: []Entry{
		{Record: Record{Kind: KindAcquire, AtNs: 10}, LockName: "a", AgentName: "w1"},
		{Record: Record{Kind: KindWait, AtNs: 20}, LockName: "a", AgentName: "w2"},
		{Record: Record{Kind: KindRelease, AtNs: 30}, LockName: "a", AgentName: "w1"},
		{Record: Record{Kind: KindAcquire, AtNs: 31}, LockName: "a", AgentName: "w2"},
	}}})
	snap := GraphAt(timeline, 25)
	if h := holderAt(snap.Holders, "a"); h != "p/w1" {
		t.Fatalf("holder at t=25 = %q: %+v", h, snap.Holders)
	}
	found := false
	for _, e := range snap.Waits {
		if e.Actor == "p/w2" && e.Lock == "a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("w2 wait edge missing at t=25: %+v", snap.Waits)
	}
	if h := holderAt(GraphAt(timeline, 40).Holders, "a"); h != "p/w2" {
		t.Fatalf("holder at t=40 = %q, want p/w2", h)
	}
}

// holderAt finds lock's holder in a snapshot's held edges.
func holderAt(holders []causal.HeldEdge, lock string) string {
	for _, h := range holders {
		if h.Lock == lock {
			return h.Actor
		}
	}
	return ""
}

func TestMergeOrdersAcrossProcs(t *testing.T) {
	merged := Merge([]ProcEntries{
		{Proc: "server", Entries: []Entry{
			{Record: Record{Kind: KindAcquire, AtNs: 5, Trace: 9}, LockName: "a"},
		}},
		{Proc: "client", Entries: []Entry{
			{Record: Record{Kind: KindWait, AtNs: 1, Trace: 9}, LockName: "a"},
			{Record: Record{Kind: KindAcquire, AtNs: 6, Trace: 9}, LockName: "a"},
		}},
	})
	if len(merged) != 3 || merged[0].Proc != "client" || merged[1].Proc != "server" {
		t.Fatalf("merge order wrong: %+v", merged)
	}
	spans := Spans(merged)
	_ = spans // span derivation is exercised in TestSpansFromTimeline
}

func TestSpansFromTimeline(t *testing.T) {
	timeline := []MergedEntry{
		{Proc: "p", Entry: Entry{Record: Record{Kind: KindAcquire, AtNs: 100, DurNs: 40, Token: 3, Trace: 1}, LockName: "a", AgentName: "w"}},
		{Proc: "p", Entry: Entry{Record: Record{Kind: KindRelease, AtNs: 200, DurNs: 100, Token: 3, Trace: 1}, LockName: "a", AgentName: "w"}},
		{Proc: "p", Entry: Entry{Record: Record{Kind: KindOwnerDead, AtNs: 400, DurNs: 50}, LockName: "b", AgentName: "x"}},
	}
	spans := Spans(timeline)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	if spans[0].Name != "wait" || spans[0].Start != 60 || spans[0].End != 100 {
		t.Fatalf("wait span: %+v", spans[0])
	}
	if spans[1].Name != "hold" || spans[1].Start != 100 || spans[1].End != 200 || spans[1].Attrs["token"] != "3" {
		t.Fatalf("hold span: %+v", spans[1])
	}
	if spans[2].Name != "hold-owner-dead" || spans[2].Actor != "p/x" {
		t.Fatalf("owner-dead span: %+v", spans[2])
	}
}

func TestNameTruncation(t *testing.T) {
	j := openTest(t, nil)
	long := ""
	for i := 0; i < 10; i++ {
		long += "abcdefghij"
	}
	id := j.InternLock(long)
	if id2 := j.InternLock(long); id2 != id {
		t.Fatalf("interning not stable: %d vs %d", id, id2)
	}
	j.Append(Record{Kind: KindAcquire, AtNs: 1, Lock: id})
	j.Flush()
	entries, _, err := ReadDir(j.Dir())
	if err != nil || len(entries) != 1 {
		t.Fatalf("read: %v %v", entries, err)
	}
	if got := entries[0].LockName; len(got) != MaxNameLen || got != long[:MaxNameLen] {
		t.Fatalf("name %q (len %d), want %d-byte prefix", got, len(got), MaxNameLen)
	}
}
