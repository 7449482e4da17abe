package lockclient

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/lockd"
	"repro/internal/telemetry"
)

// TestTracePropagation is the cross-process acceptance check: one trace
// ID minted by the client must appear in both the client-side "acquire"
// span and the server-side "queue-wait" span, and survive into a merged
// Chrome trace with both processes as distinct pids.
func TestTracePropagation(t *testing.T) {
	srvRec := causal.NewRecorder(256)
	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{
		Recorder: srvRec,
		Graph:    causal.NewGraph(),
		Flight:   causal.NewFlight(64),
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	cliRec := causal.NewRecorder(256)
	c, err := Dial(srv.Addr(), Options{Client: "tracer", Heartbeat: -1, Recorder: cliRec})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx := context.Background()
	h, err := c.Acquire(ctx, "orders")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if h.Trace == 0 {
		t.Fatal("granted handle carries no trace ID")
	}
	if h.ServerSpan == 0 {
		t.Fatal("granted handle carries no server span ID")
	}
	if err := c.Release(ctx, h); err != nil {
		t.Fatalf("Release: %v", err)
	}

	var root causal.Span
	for _, s := range cliRec.Spans() {
		if s.Name == "acquire" && s.Trace == h.Trace {
			root = s
		}
	}
	if root.ID == 0 {
		t.Fatalf("client recorder has no acquire root for trace %s: %+v", h.Trace, cliRec.Spans())
	}

	var qw causal.Span
	for _, s := range srvRec.Spans() {
		if s.Name == "queue-wait" && s.Trace == h.Trace {
			qw = s
		}
	}
	if qw.ID == 0 {
		t.Fatalf("server recorder has no queue-wait span for trace %s: %+v", h.Trace, srvRec.Spans())
	}
	if qw.Parent != root.ID {
		t.Fatalf("server span parent = %s, want client root %s", qw.Parent, root.ID)
	}
	if qw.ID != h.ServerSpan {
		t.Fatalf("handle ServerSpan = %s, recorded server span = %s", h.ServerSpan, qw.ID)
	}
	if qw.Actor != "tracer" {
		t.Fatalf("server span actor = %q, want the client name", qw.Actor)
	}

	// Merge both sides into one Chrome trace: the trace ID must appear
	// in duration events of two distinct pids, joined by one flow pair.
	file := causal.ChromeSpans(
		causal.ChromePart{Label: "lockclient", Spans: cliRec.Spans()},
		causal.ChromePart{Label: "lockd", Spans: srvRec.Spans()},
	)
	pids := map[int]bool{}
	flows := 0
	for _, e := range file.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Args["trace"] == h.Trace.String() {
				pids[e.Pid] = true
			}
		case "s":
			flows++
		}
	}
	if len(pids) != 2 {
		t.Fatalf("trace %s present in %d pids of the merged trace, want 2", h.Trace, len(pids))
	}
	if flows == 0 {
		t.Fatal("merged trace has no flow events binding the processes")
	}
}

// TestNoTraceSuppressesContext verifies the opt-out: no spans recorded,
// no trace ID on the handle, and no rpc span for a refused attempt
// either.
func TestNoTraceSuppressesContext(t *testing.T) {
	rec := causal.NewRecorder(64)
	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{
		Recorder: causal.NewRecorder(64), Graph: causal.NewGraph(), Flight: causal.NewFlight(16),
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), Options{Client: "quiet", Heartbeat: -1, Recorder: rec, NoTrace: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	h, err := c.Acquire(context.Background(), "L")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if h.Trace != 0 || h.ServerSpan != 0 {
		t.Fatalf("NoTrace handle carries trace context: %+v", h)
	}
	other, err := Dial(srv.Addr(), Options{Client: "quiet-2", Heartbeat: -1, Recorder: rec, NoTrace: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer other.Close()
	if _, err := other.AcquireWith(context.Background(), "L", AcquireOptions{Hint: "try"}); err == nil {
		t.Fatal("try-acquire of a held lock succeeded")
	}
	if rec.Len() != 0 {
		t.Fatalf("NoTrace recorded %d spans: %+v", rec.Len(), rec.Spans())
	}
}

// TestStatsLastToken verifies the per-lock fencing-token memory on the
// client: Stats().Tokens and LastToken report the last observed grant,
// surviving release (post-mortem fencing checks need exactly that).
func TestStatsLastToken(t *testing.T) {
	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{
		Recorder: causal.NewRecorder(64), Graph: causal.NewGraph(), Flight: causal.NewFlight(16),
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), Options{Client: "toks", Heartbeat: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	if _, ok := c.LastToken("a"); ok {
		t.Fatal("LastToken reported a token before any grant")
	}
	ha, err := c.Acquire(ctx, "a")
	if err != nil {
		t.Fatalf("Acquire a: %v", err)
	}
	hb, err := c.Acquire(ctx, "b")
	if err != nil {
		t.Fatalf("Acquire b: %v", err)
	}
	if err := c.Release(ctx, ha); err != nil {
		t.Fatalf("Release a: %v", err)
	}
	if err := c.Release(ctx, hb); err != nil {
		t.Fatalf("Release b: %v", err)
	}
	// Re-acquire a: the token advances and the map follows.
	ha2, err := c.Acquire(ctx, "a")
	if err != nil {
		t.Fatalf("re-Acquire a: %v", err)
	}
	if tok, ok := c.LastToken("a"); !ok || tok != ha2.Token {
		t.Fatalf("LastToken(a) = %d/%v, want %d", tok, ok, ha2.Token)
	}
	st := c.Stats()
	if st.Tokens["a"] != ha2.Token || st.Tokens["b"] != hb.Token {
		t.Fatalf("Stats().Tokens = %v, want a=%d b=%d", st.Tokens, ha2.Token, hb.Token)
	}
	// The snapshot is a copy: mutating it must not touch the client.
	st.Tokens["a"] = 999
	if tok, _ := c.LastToken("a"); tok == 999 {
		t.Fatal("Stats().Tokens aliases client state")
	}
}

// TestDeadlockSmoke induces a real ABBA deadlock between two clients of
// one lockd server and asserts the observability contract end to end:
// /debug/waitgraph names the exact cycle members and locks, and
// waitgraph_deadlock_suspected_total increments in /metrics. This is the
// `make deadlock-smoke` target.
func TestDeadlockSmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	graph := causal.NewGraph()
	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{
		Registry: reg,
		Recorder: causal.NewRecorder(1024),
		Graph:    graph,
		Flight:   causal.NewFlight(64),
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	web := httptest.NewServer(reg.Handler())
	defer web.Close()

	dial := func(name string) *Client {
		// Tight retry budget: the unwind kills the server for good, and
		// the parked acquisitions must fail fast rather than ride the
		// failover-sized default backoff against a dead address.
		c, err := Dial(srv.Addr(), Options{
			Client: name, Heartbeat: -1, Lease: 30 * time.Second,
			MaxAttempts: 2, BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("Dial %s: %v", name, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	alice, bob := dial("alice"), dial("bob")
	ctx := context.Background()

	if _, err := alice.Acquire(ctx, "l1"); err != nil {
		t.Fatalf("alice l1: %v", err)
	}
	if _, err := bob.Acquire(ctx, "l2"); err != nil {
		t.Fatalf("bob l2: %v", err)
	}

	// Close the ring: each waits for the other's lock. The acquisitions
	// will never be granted; the server's wait-for graph must say why.
	var wg sync.WaitGroup
	cross := lockclientAcquireOptions()
	for _, x := range []struct {
		c    *Client
		lock string
	}{{alice, "l2"}, {bob, "l1"}} {
		wg.Add(1)
		go func(c *Client, lock string) {
			defer wg.Done()
			c.AcquireWith(ctx, lock, cross) // blocks until the server dies
		}(x.c, x.lock)
	}

	deadline := time.Now().Add(15 * time.Second)
	var snap causal.GraphSnapshot
	for {
		snap = fetchWaitGraph(t, web.URL)
		if snap.Suspected >= 1 && len(snap.Cycles) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cycle detected before deadline; snapshot: %+v", snap)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if got := fmt.Sprint(snap.Cycles[0]); got != "[alice bob]" {
		t.Fatalf("cycle members = %v, want [alice bob]", snap.Cycles[0])
	}
	if len(snap.Recent) == 0 {
		t.Fatal("snapshot has no recent cycle record")
	}
	locks := snap.Recent[len(snap.Recent)-1].Locks
	if fmt.Sprint(locks) != "[l1 l2]" {
		t.Fatalf("cycle locks = %v, want [l1 l2]", locks)
	}

	// The DOT rendering names the same actors for operators on curl.
	dot := httpGetBody(t, web.URL+"/debug/waitgraph?format=dot")
	for _, want := range []string{`"actor:alice"`, `"actor:bob"`, "color=red"} {
		if !strings.Contains(dot, want) {
			t.Errorf("waitgraph DOT missing %q:\n%s", want, dot)
		}
	}

	// /metrics reports the suspicion on the scrape path.
	metrics := httpGetBody(t, web.URL+"/metrics")
	found := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "#") || !strings.Contains(line, "waitgraph_deadlock_suspected_total") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[len(fields)-1] != "0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/metrics has no nonzero waitgraph_deadlock_suspected_total:\n%s", metrics)
	}

	// Unwind: closing the server aborts both parked acquisitions.
	srv.Close()
	wg.Wait()
}

// lockclientAcquireOptions gives the crossing acquisitions a queue-wait
// bound comfortably past the detection deadline, so the server parks
// them rather than timing them out mid-test.
func lockclientAcquireOptions() AcquireOptions {
	return AcquireOptions{Wait: 60 * time.Second}
}

func fetchWaitGraph(t *testing.T, base string) causal.GraphSnapshot {
	t.Helper()
	var snap causal.GraphSnapshot
	if err := json.Unmarshal([]byte(httpGetBody(t, base+"/debug/waitgraph")), &snap); err != nil {
		t.Fatalf("waitgraph JSON: %v", err)
	}
	return snap
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
