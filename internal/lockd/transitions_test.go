package lockd_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/journal"
	"repro/internal/lockclient"
	"repro/internal/lockd"
	"repro/internal/telemetry"
)

// stubReplica is a single-node replica that is always the leader and
// acks every proposal unless fail is set, so a test can take the
// quorum away for one acquisition.
type stubReplica struct{ fail atomic.Bool }

func (r *stubReplica) Gate() lockd.ReplGate { return lockd.ReplGate{Leader: true, Term: 1} }

func (r *stubReplica) Propose(lockd.Mutation) error {
	if r.fail.Load() {
		return errors.New("no quorum")
	}
	return nil
}

func (r *stubReplica) HandleRepl(req *lockd.PeerRequest) lockd.Response {
	return lockd.Response{ID: req.ID, Code: lockd.CodeBadRequest}
}

// wireActor is one session speaking the wire protocol over its own
// connection, so the test decides exactly when each request is sent and
// each reply read.
type wireActor struct {
	rc   *rawConn
	sess uint64
	id   uint64
}

func newWireActor(t *testing.T, srv *lockd.Server, name string, leaseMs int64) *wireActor {
	t.Helper()
	a := &wireActor{rc: dialRaw(t, srv)}
	resp := a.call(lockd.Request{Op: lockd.OpHello, Client: name, LeaseMs: leaseMs})
	if !resp.OK {
		t.Fatalf("hello %s: %+v", name, resp)
	}
	a.sess = resp.Session
	return a
}

func (a *wireActor) send(req lockd.Request) {
	a.rc.t.Helper()
	a.id++
	req.ID, req.Session = a.id, a.sess
	a.rc.send(req)
}

func (a *wireActor) call(req lockd.Request) lockd.Response {
	a.rc.t.Helper()
	a.send(req)
	return a.rc.recv()
}

// transcript renders what one step added to the flight ring, the span
// recorder and the journal. Lines are sorted within a step: when a
// release hands the lock to a queued waiter, the two sessions record
// from different goroutines, and only the set of records is pinned.
type transcript struct {
	t       *testing.T
	flight  *causal.Flight
	rec     *causal.Recorder
	jrnl    *journal.Journal
	dir     string
	nFlight int
	nSpans  int
	nJrnl   int
	out     strings.Builder
}

func (tr *transcript) step(name string) {
	tr.t.Helper()
	var lines []string
	events := tr.flight.Events("L")
	for _, e := range events[tr.nFlight:] {
		lines = append(lines, fmt.Sprintf("flight %s %s %q", e.Kind, e.Actor, e.Detail))
	}
	tr.nFlight = len(events)
	spans := tr.rec.Spans()
	for _, s := range spans[tr.nSpans:] {
		why := s.Attrs["outcome"]
		if why == "" {
			why = "cause=" + s.Attrs["cause"]
		}
		line := fmt.Sprintf("span %s %s %s", s.Name, s.Actor, why)
		if tok := s.Attrs["token"]; tok != "" {
			line += " token=" + tok
		}
		lines = append(lines, line)
	}
	tr.nSpans = len(spans)
	tr.jrnl.Flush()
	entries, _, err := journal.ReadDir(tr.dir)
	if err != nil {
		tr.t.Fatalf("read journal: %v", err)
	}
	var served []journal.Entry
	for _, e := range entries {
		if e.Origin == journal.OriginLockd && e.LockName == "L" {
			served = append(served, e)
		}
	}
	for _, e := range served[tr.nJrnl:] {
		lines = append(lines, fmt.Sprintf("journal %s %s token=%d", e.Kind, e.AgentName, e.Token))
	}
	tr.nJrnl = len(served)
	sort.Strings(lines)
	fmt.Fprintf(&tr.out, "== %s\n", name)
	for _, l := range lines {
		tr.out.WriteString(l + "\n")
	}
}

// awaitFlight polls until lock L's flight ring holds an event of kind
// recorded by actor.
func awaitFlight(t *testing.T, f *causal.Flight, kind, actor string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, e := range f.Events("L") {
			if e.Kind == kind && e.Actor == actor {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no %q flight event from %s", kind, actor)
}

// awaitExpired polls until the server has expired n sessions.
func awaitExpired(t *testing.T, srv *lockd.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().SessionsExpired < n {
		if time.Now().After(deadline) {
			t.Fatalf("sessions expired = %d, want %d", srv.Counters().SessionsExpired, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func wantCode(t *testing.T, what string, resp lockd.Response, code string) {
	t.Helper()
	if resp.Code != code {
		t.Fatalf("%s: %+v, want code %q", what, resp, code)
	}
}

// TestLockTransitionViews drives one served lock through every
// transition lockd records — wait, acquire, recovered acquire, timeout,
// shed, connection abort, release, bye, lease expiry of a holder and of
// a waiter, a lost quorum and a reconfigure — and pins what each step
// writes to the flight ring, the span recorder and the journal, plus
// the wait-for graph at the end. Timestamps are left out; trace ids are
// reproducible under a fixed ID seed.
func TestLockTransitionViews(t *testing.T) {
	causal.SetIDSeed(1)
	dir := t.TempDir()
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	defer j.Close()
	rep := &stubReplica{}
	graph, flight, rec := causal.NewGraph(), causal.NewFlight(256), causal.NewRecorder(1024)
	srv := newServer(t, lockd.Config{
		MaxWaiters: 1, DefaultLease: time.Minute, MinLease: 20 * time.Millisecond,
		SweepEvery: 5 * time.Millisecond, Graph: graph, Flight: flight, Recorder: rec,
		Journal: j, Replica: rep,
	})
	tr := &transcript{t: t, flight: flight, rec: rec, jrnl: j, dir: dir}
	acquire := lockd.Request{Op: lockd.OpAcquire, Lock: "L"}
	const shortLeaseMs = 150

	a, b, c := newWireActor(t, srv, "a", 0), newWireActor(t, srv, "b", 0), newWireActor(t, srv, "c", 0)
	resp := a.call(acquire)
	wantCode(t, "a acquire", resp, "")
	tr.step("a acquires the free lock")

	b.send(acquire)
	awaitFlight(t, flight, "wait", "b")
	tr.step("b queues behind a")

	wantCode(t, "c acquire", c.call(acquire), lockd.CodeOverloaded)
	tr.step("c is shed")

	wantCode(t, "a release", a.call(lockd.Request{Op: lockd.OpRelease, Lock: "L", Token: resp.Token}), "")
	wantCode(t, "b grant", b.rc.recv(), "")
	tr.step("a releases and b is granted")

	timed := acquire
	timed.WaitMs = 30
	wantCode(t, "c timed acquire", c.call(timed), lockd.CodeTimeout)
	tr.step("c times out")

	d := newWireActor(t, srv, "d", 0)
	d.send(acquire)
	awaitFlight(t, flight, "wait", "d")
	d.rc.conn.Close()
	awaitFlight(t, flight, "abort", "d")
	tr.step("d's connection drops while it waits")

	wantCode(t, "b bye", b.call(lockd.Request{Op: lockd.OpBye}), "")
	tr.step("b says bye while holding")

	e := newWireActor(t, srv, "e", shortLeaseMs)
	wantCode(t, "e acquire", e.call(acquire), "")
	awaitExpired(t, srv, 1)
	tr.step("e acquires and its lease lapses")

	f := newWireActor(t, srv, "f", 0)
	resp = f.call(acquire)
	if !resp.OK || !resp.Recovered {
		t.Fatalf("f acquire = %+v, want a recovered grant", resp)
	}
	tr.step("f inherits the lock from e")

	h := newWireActor(t, srv, "h", shortLeaseMs)
	h.send(acquire)
	awaitFlight(t, flight, "wait", "h")
	awaitExpired(t, srv, 2)
	wantCode(t, "f release", f.call(lockd.Request{Op: lockd.OpRelease, Lock: "L", Token: resp.Token}), "")
	wantCode(t, "h grant", h.rc.recv(), lockd.CodeExpired)
	tr.step("h's lease lapses while it waits; f releases")

	wantCode(t, "a reconfigure", a.call(lockd.Request{Op: lockd.OpReconfigure, Lock: "L", Policy: "combined"}), "")
	tr.step("a reconfigures the lock")

	i := newWireActor(t, srv, "i", 0)
	rep.fail.Store(true)
	wantCode(t, "i acquire", i.call(acquire), lockd.CodeUnavailable)
	rep.fail.Store(false)
	tr.step("i is granted without a quorum")

	jj, k := newWireActor(t, srv, "j", 0), newWireActor(t, srv, "k", 0)
	wantCode(t, "j acquire", jj.call(acquire), "")
	k.send(acquire)
	awaitFlight(t, flight, "wait", "k")
	tr.step("j holds and k waits")

	snap := graph.Snapshot()
	fmt.Fprintf(&tr.out, "== graph\nwaits %v\nholders %v\ncycles %v\n", snap.Waits, snap.Holders, snap.Cycles)

	if got := tr.out.String(); got != transitionsGolden {
		t.Fatalf("transition views changed:\n--- got\n%s--- want\n%s", got, transitionsGolden)
	}
}

const transitionsGolden = `== a acquires the free lock
flight acquire a "token=1 trace=9e3779b97f4a7c14"
flight wait a "trace=9e3779b97f4a7c14"
journal acquire a token=1
journal wait a token=0
span queue-wait a acquired token=1
== b queues behind a
flight wait b "trace=daa66d2c7ddf743e"
journal wait b token=0
== c is shed
journal abort c token=0
== a releases and b is granted
flight acquire b "token=2 trace=daa66d2c7ddf743e"
flight release a "token=1"
journal acquire b token=2
journal release a token=1
span hold a cause=released token=1
span queue-wait b acquired token=2
== c times out
flight timeout c ""
flight wait c "trace=b54cda58fbbee87f"
journal timeout c token=0
journal wait c token=0
span queue-wait c timeout
== d's connection drops while it waits
flight abort d "connection or server closing"
flight wait d "trace=f1bbcdcbfa53e0a9"
journal abort d token=0
journal wait d token=0
span queue-wait d aborted
== b says bye while holding
flight release b "token=2"
journal release b token=2
span hold b cause=bye token=2
== e acquires and its lease lapses
flight acquire e "token=3 trace=cc623af8783354e6"
flight expired e "token=3"
flight wait e "trace=cc623af8783354e6"
journal acquire e token=3
journal owner-dead e token=3
journal wait e token=0
span hold e cause=lease-expired token=3
span queue-wait e acquired token=3
== f inherits the lock from e
flight acquire f "token=4 trace=a708a824f612c927"
flight wait f "trace=a708a824f612c927"
journal acquire f token=4
journal wait f token=0
span queue-wait f recovered token=4
== h's lease lapses while it waits; f releases
flight abort h "lease expired while waiting"
flight release f "token=4"
flight wait h "trace=e3779b97f4a7c151"
journal abort h token=0
journal release f token=4
journal wait h token=0
span hold f cause=released token=4
span queue-wait h expired
== a reconfigures the lock
journal reconfig a token=0
== i is granted without a quorum
flight abort i "replication quorum unavailable"
flight wait i "trace=be1e08c47287358e"
journal abort i token=0
journal wait i token=0
span queue-wait i unreplicated
== j holds and k waits
flight acquire j "token=7 trace=fa8cfc37711c2db8"
flight wait j "trace=fa8cfc37711c2db8"
flight wait k "trace=36fbefaa6fb125e2"
journal acquire j token=7
journal wait j token=0
journal wait k token=0
span queue-wait j acquired token=7
== graph
waits [{k L}]
holders [{L j}]
cycles []
`

// TestLeaseLapsedWaiterClosedInJournal is the regression test for a
// waiter whose session expires while it is queued: the give-back must
// close its wait in the journal, or the timeline shows it waiting
// forever.
func TestLeaseLapsedWaiterClosedInJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	srv := newServer(t, lockd.Config{SweepEvery: 5 * time.Millisecond, MinLease: 20 * time.Millisecond, Journal: j})
	ctx := context.Background()
	holder, err := lockclient.Dial(srv.Addr(), lockclient.Options{Client: "holder", Heartbeat: -1})
	if err != nil {
		t.Fatalf("Dial holder: %v", err)
	}
	defer holder.Close()
	h, err := holder.Acquire(ctx, "L")
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	waiter, err := lockclient.Dial(srv.Addr(), lockclient.Options{
		Client: "waiter", Lease: 40 * time.Millisecond, Heartbeat: -1, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatalf("Dial waiter: %v", err)
	}
	defer waiter.Close()
	done := make(chan error, 1)
	go func() {
		_, err := waiter.Acquire(ctx, "L")
		done <- err
	}()
	waitForWaiting(t, holder, "L", 1)
	awaitExpired(t, srv, 1)
	if err := holder.Release(ctx, h); err != nil {
		t.Fatalf("holder release: %v", err)
	}
	var se *lockclient.ServerError
	if err := <-done; !errors.As(err, &se) || se.Code != lockd.CodeExpired {
		t.Fatalf("waiter acquire error = %v, want the server's %q", err, lockd.CodeExpired)
	}
	srv.Close()
	j.Close()
	entries, _, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	merged := journal.Merge([]journal.ProcEntries{{Proc: "lockd", Entries: entries}})
	if cut := journal.StateAt(merged, time.Now().UnixNano()); len(cut.Waiters) != 0 {
		t.Fatalf("journal still shows waiters after the run: %+v", cut.Waiters)
	}
}

// TestRegistryAndJournalShareTheMutexSink runs lockd with both a
// telemetry registry and a journal, whose consumers share each served
// mutex's one event sink, and checks that neither starves the other:
// the hold histogram has one sample per release, the wait histogram one
// per contended grant, and the native-level journal records are there.
func TestRegistryAndJournalShareTheMutexSink(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	defer j.Close()
	reg := telemetry.NewRegistry()
	srv := newServer(t, lockd.Config{Registry: reg, Journal: j})
	acquire := lockd.Request{Op: lockd.OpAcquire, Lock: "L"}
	a, b, c := newWireActor(t, srv, "a", 0), newWireActor(t, srv, "b", 0), newWireActor(t, srv, "c", 0)

	ra := a.call(acquire)
	wantCode(t, "a acquire", ra, "")
	b.send(acquire)
	waitForQueued(t, reg, "lockd/L", 1)
	timed := acquire
	timed.WaitMs = 30
	wantCode(t, "c timed acquire", c.call(timed), lockd.CodeTimeout) // contended, never granted
	wantCode(t, "a release", a.call(lockd.Request{Op: lockd.OpRelease, Lock: "L", Token: ra.Token}), "")
	rb := b.rc.recv()
	wantCode(t, "b grant", rb, "")
	wantCode(t, "b release", b.call(lockd.Request{Op: lockd.OpRelease, Lock: "L", Token: rb.Token}), "")

	var snap *telemetry.LockSnapshot
	for _, s := range reg.Snapshots() {
		if s.Name == "lockd/L" {
			snap = &s
		}
	}
	if snap == nil || snap.Wait == nil || snap.Hold == nil || snap.Native == nil {
		t.Fatalf("lockd/L snapshot lacks histograms or stats: %+v", snap)
	}
	if got := snap.Hold.Count(); got != 2 {
		t.Errorf("hold samples = %d, want 2 (one per release)", got)
	}
	if got := snap.Wait.Count(); got != 1 {
		t.Errorf("wait samples = %d, want 1 (one per contended grant)", got)
	}
	if got := snap.Native.Contended; got != 2 {
		t.Errorf("contended acquisitions = %d, want 2 (b granted, c timed out)", got)
	}

	j.Flush()
	entries, _, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	kinds := map[journal.Kind]int{}
	for _, e := range entries {
		if e.LockName == "native/L" {
			kinds[e.Kind]++
		}
	}
	if kinds[journal.KindAcquire] != 2 || kinds[journal.KindRelease] != 2 {
		t.Errorf("native/L journal records = %v, want 2 acquires and 2 releases", kinds)
	}
}
