package lockclient

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/lockd"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a := newBackoff(10*time.Millisecond, 200*time.Millisecond, 99)
	b := newBackoff(10*time.Millisecond, 200*time.Millisecond, 99)
	for i := 0; i < 20; i++ {
		da, db := a.next(), b.next()
		if da != db {
			t.Fatalf("attempt %d: same seed drew %v vs %v", i, da, db)
		}
		if da < 0 || da > 200*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [0, max]", i, da)
		}
	}
	// A different seed draws a different sequence (overwhelmingly).
	c := newBackoff(10*time.Millisecond, 200*time.Millisecond, 100)
	same := true
	for i := 0; i < 10; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds drew identical sequences")
	}
	// reset rewinds to the small first-attempt ceiling.
	a.reset()
	if d := a.next(); d > 10*time.Millisecond {
		t.Fatalf("post-reset delay %v above first-attempt ceiling", d)
	}
}

// TestClientAgainstServer exercises the full client loop against a real
// server: acquire/release, stats, and the hello lease grant.
func TestClientAgainstServer(t *testing.T) {
	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	ctx := context.Background()

	c, err := Dial(srv.Addr(), Options{Client: "ct", Lease: 500 * time.Millisecond, Heartbeat: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.Session() == 0 {
		t.Fatalf("no session after dial")
	}
	if c.Lease() != 500*time.Millisecond {
		t.Fatalf("lease = %v, want 500ms", c.Lease())
	}
	h, err := c.Acquire(ctx, "L")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := c.Release(ctx, h); err != nil {
		t.Fatalf("release: %v", err)
	}
	st, err := c.Stat(ctx)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Sessions != 1 || st.Counters.Acquires != 1 {
		t.Fatalf("stat = %+v, want 1 session, 1 acquire", st)
	}
}

// TestHeartbeatLoopKeepsLeaseAlive holds a lock well past the lease with
// the background heartbeat enabled: the session must survive.
func TestHeartbeatLoopKeepsLeaseAlive(t *testing.T) {
	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{
		MinLease: 40 * time.Millisecond, SweepEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	ctx := context.Background()

	c, err := Dial(srv.Addr(), Options{Lease: 60 * time.Millisecond, Heartbeat: 15 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	h, err := c.Acquire(ctx, "L")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // > 3 leases
	if err := c.Release(ctx, h); err != nil {
		t.Fatalf("release after held past lease: %v", err)
	}
	if ctr := srv.Counters(); ctr.SessionsExpired != 0 || ctr.Releases != 1 {
		t.Fatalf("counters = %+v, want no expiry and a clean release", ctr)
	}
	if c.Stats().Heartbeats == 0 {
		t.Fatalf("heartbeat loop never beat")
	}
}

// TestCallReusesResponseChannel checks that Call hands a drained
// response channel to the next Call instead of making one per RPC.
func TestCallReusesResponseChannel(t *testing.T) {
	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), Options{Client: "reuse", Heartbeat: -1, NoTrace: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	spare := func() []chan lockd.Response {
		c.mu.Lock()
		defer c.mu.Unlock()
		return append([]chan lockd.Response(nil), c.spare...)
	}
	ctx := context.Background()
	first := spare()
	if len(first) != 1 {
		t.Fatalf("after the hello call: %d spare channels, want 1", len(first))
	}
	for i := 0; i < 3; i++ {
		h, err := c.Acquire(ctx, "L")
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if err := c.Release(ctx, h); err != nil {
			t.Fatalf("release: %v", err)
		}
		if got := spare(); len(got) != 1 || got[0] != first[0] {
			t.Fatalf("cycle %d: spare channels %v, want the one from the hello call %v", i, got, first)
		}
	}
}

// TestDialFailure surfaces the dial error rather than hanging.
func TestDialFailure(t *testing.T) {
	// Grab and release a port so the dial target refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr, Options{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatalf("Dial to dead address succeeded")
	}
}

// TestClosedClientRejectsOps verifies ErrClosed after Close.
func TestClosedClientRejectsOps(t *testing.T) {
	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), Options{Heartbeat: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Acquire(context.Background(), "L"); err == nil {
		t.Fatalf("acquire on closed client succeeded")
	}
}
