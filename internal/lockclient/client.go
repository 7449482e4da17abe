// Package lockclient is the client half of the lockd lease-based lock
// service: sessions with background keepalive heartbeats, acquisitions
// with deadlines and fencing tokens, idempotent token-keyed release,
// automatic reconnect with session resume, and seeded exponential
// backoff + jitter on overload shedding and connection loss.
//
// Against a replicated cluster, Dial accepts a comma-separated address
// list ("addr1,addr2,addr3"). The client tracks the leader: NotLeader
// rejections are followed to the address they hint at (cycling the ring
// when no hint is live, e.g. mid-election), the session is re-established
// on the new leader — resumed by id, since session state is replicated —
// and the per-lock last-token map survives the move, so fencing checks
// stay valid across a failover.
package lockclient

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/causal"
	"repro/internal/hlc"
	"repro/internal/journal"
	"repro/internal/lockd"
)

// Errors surfaced by the client.
var (
	// ErrClosed reports an operation on a closed client.
	ErrClosed = errors.New("lockclient: client closed")
	// ErrConnLost aborts calls in flight when the connection drops; the
	// operation wrappers retry through it, so callers only see it from
	// the low-level Call.
	ErrConnLost = errors.New("lockclient: connection lost")
	// ErrOverloaded reports an acquisition shed by the server on every
	// attempt the retry budget allowed.
	ErrOverloaded = errors.New("lockclient: server overloaded")
	// ErrAcquireTimeout reports an acquisition the server timed out.
	ErrAcquireTimeout = errors.New("lockclient: acquire timed out")
)

// ServerError is a non-retriable server rejection.
type ServerError struct {
	Code string
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("lockclient: server rejected: %s (%s)", e.Msg, e.Code)
}

// Options tunes a Client. The zero value works against a local server.
type Options struct {
	// Client names the session (diagnostics only).
	Client string
	// Lease is the requested session lease; 0 accepts the server
	// default. The server clamps to its configured bounds.
	Lease time.Duration
	// Heartbeat is the keepalive cadence; 0 derives lease/3, negative
	// disables the background heartbeat loop entirely (deterministic
	// tests drive liveness themselves).
	Heartbeat time.Duration
	// Dial overrides the connection factory (fault-injection tests wrap
	// the conn here). Default: net.DialTimeout("tcp", addr, DialTimeout).
	Dial func(addr string) (net.Conn, error)
	// DialTimeout bounds the default dialer. Default 5s.
	DialTimeout time.Duration
	// MaxAttempts bounds each operation's attempts across sheds and
	// reconnects. Default 16, sized so a default-configured client
	// rides out a full leader election (detection + seeded delay +
	// vote) against a default-lease cluster without giving up.
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential backoff between
	// attempts. Defaults 10ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter stream (same seed, same jitter
	// sequence). Default 1.
	Seed int64
	// Recorder receives the client-side causal spans of every
	// acquisition (the "acquire" root, per-attempt "rpc" spans, and
	// "backoff" gaps). Nil uses causal.Default; NoTrace disables span
	// emission entirely.
	Recorder *causal.Recorder
	// NoTrace suppresses causal tracing: no spans are recorded and no
	// trace context is sent on the wire.
	NoTrace bool
	// Journal receives client-side lock lifecycle records (OriginClient):
	// the wait start, the grant with its fencing token, timeouts, aborts,
	// and releases. Records carry the acquisition's causal trace ID, so a
	// client journal merges with the server's by shared trace. Nil
	// disables client-side journaling.
	Journal *journal.Journal
	// Clock is the client's hybrid logical clock: its reading rides on
	// every request, every response merges back, and journal records
	// are stamped from it — so client and server journals order
	// causally however skewed their wall clocks are. Default
	// hlc.Default.
	Clock *hlc.Clock
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 16
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Recorder == nil {
		o.Recorder = causal.Default
	}
	if o.Clock == nil {
		o.Clock = hlc.Default
	}
	return o
}

// Stats counts the client's robustness events.
type Stats struct {
	// Reconnects counts re-dials after a lost connection.
	Reconnects int64
	// Failovers counts session re-establishments that landed on a
	// different cluster address than the previous connection.
	Failovers int64
	// Retries counts operation attempts beyond the first.
	Retries int64
	// Sheds counts CodeOverloaded responses absorbed by backoff.
	Sheds int64
	// Heartbeats counts successful keepalives.
	Heartbeats int64
	// Tokens maps each lock this client has acquired to the last fencing
	// token it observed for it (the grant's token, kept after release so
	// post-mortem checks can compare against downstream writes).
	Tokens map[string]uint64
	// SkewNs maps each server address this client has exchanged
	// requests with to the estimated offset of that server's wall clock
	// from the client's, in nanoseconds (positive: server ahead). Fed
	// by the RTT-bounded interval estimator in internal/hlc.
	SkewNs map[string]int64
}

// Client is a lockd session. All methods are safe for concurrent use.
type Client struct {
	addrs []string // cluster ring, in Dial order
	o     Options
	bo    *backoff

	mu         sync.Mutex
	conn       net.Conn
	wbuf       []byte // reused request line buffer, under mu
	session    uint64
	lease      time.Duration
	nextID     uint64
	pend       map[uint64]chan lockd.Response
	spare      []chan lockd.Response // drained response channels, reused by Call
	closed     bool
	cur        int    // ring index of the last good address
	lastAddr   string // address of the last established session
	leaderHint string // one-shot redirect target from a NotLeader reply

	dialMu sync.Mutex // serializes reconnect attempts

	hbStop chan struct{}
	hbDone chan struct{}

	tokMu  sync.Mutex
	tokens map[string]uint64 // lock -> last observed fencing token

	skewMu sync.Mutex
	skew   map[string]*hlc.SkewEstimator // server addr -> offset estimate

	reconnects atomic.Int64
	failovers  atomic.Int64
	retries    atomic.Int64
	sheds      atomic.Int64
	heartbeats atomic.Int64
}

// Handle is one granted lock: release it with Client.Release. Token is
// the fencing token — pass it to downstream resources so writes from a
// stale holder can be rejected.
type Handle struct {
	Lock  string
	Token uint64
	// Recovered marks a grant inherited from a dead owner: the state the
	// lock protects may be mid-update and should be repaired before use.
	Recovered bool
	// Trace is the causal trace ID of the acquisition; the server's
	// queue-wait and hold spans carry the same ID, so one trace covers
	// the acquisition across both processes. Zero when tracing is off.
	Trace causal.TraceID
	// ServerSpan is the server-side queue-wait span ID echoed on the
	// grant (zero if the server predates trace propagation).
	ServerSpan causal.SpanID

	granted time.Time // grant instant, for the release record's hold duration
}

// Dial connects, opens a session, and starts the heartbeat loop. addr
// may be a comma-separated cluster list; the client fails over along it.
func Dial(addr string, o Options) (*Client, error) {
	o = o.withDefaults()
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("lockclient: no address in %q", addr)
	}
	c := &Client{
		addrs: addrs,
		o:     o,
		bo:    newBackoff(o.BackoffBase, o.BackoffMax, o.Seed),
		pend:  make(map[uint64]chan lockd.Response),
	}
	if err := c.reconnect(context.Background()); err != nil {
		return nil, err
	}
	if o.Heartbeat >= 0 {
		hb := o.Heartbeat
		if hb == 0 {
			c.mu.Lock()
			hb = c.lease / 3
			c.mu.Unlock()
			if hb <= 0 {
				hb = 500 * time.Millisecond
			}
		}
		c.hbStop = make(chan struct{})
		c.hbDone = make(chan struct{})
		go c.heartbeatLoop(hb)
	}
	return c, nil
}

// Session returns the current session ID (it changes if a resume is
// refused after the lease lapses).
func (c *Client) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// Lease returns the server-granted lease.
func (c *Client) Lease() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lease
}

// Stats snapshots the robustness counters and the last-observed fencing
// tokens.
func (c *Client) Stats() Stats {
	st := Stats{
		Reconnects: c.reconnects.Load(),
		Failovers:  c.failovers.Load(),
		Retries:    c.retries.Load(),
		Sheds:      c.sheds.Load(),
		Heartbeats: c.heartbeats.Load(),
	}
	c.tokMu.Lock()
	if len(c.tokens) > 0 {
		st.Tokens = make(map[string]uint64, len(c.tokens))
		for l, t := range c.tokens {
			st.Tokens[l] = t
		}
	}
	c.tokMu.Unlock()
	c.skewMu.Lock()
	if len(c.skew) > 0 {
		st.SkewNs = make(map[string]int64, len(c.skew))
		for addr, e := range c.skew {
			if off, ok := e.Offset(); ok {
				st.SkewNs[addr] = off
			}
		}
	}
	c.skewMu.Unlock()
	return st
}

// LastToken reports the last fencing token this client observed for the
// named lock (ok false if it never acquired it). The token survives
// release, so a caller can still fence trailing writes after letting the
// lock go.
func (c *Client) LastToken(lock string) (token uint64, ok bool) {
	c.tokMu.Lock()
	defer c.tokMu.Unlock()
	token, ok = c.tokens[lock]
	return token, ok
}

// noteToken records the freshest fencing token observed for a lock.
func (c *Client) noteToken(lock string, token uint64) {
	c.tokMu.Lock()
	if c.tokens == nil {
		c.tokens = make(map[string]uint64)
	}
	c.tokens[lock] = token
	c.tokMu.Unlock()
}

// Close ends the session (best effort bye) and releases resources.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if c.hbStop != nil {
		close(c.hbStop)
		<-c.hbDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	_, _ = c.Call(ctx, lockd.Request{Op: lockd.OpBye})
	cancel()
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// dialAddr opens a raw connection to one cluster address.
func (c *Client) dialAddr(addr string) (net.Conn, error) {
	if c.o.Dial != nil {
		return c.o.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, c.o.DialTimeout)
}

// dialOrder returns the addresses to try, best guess first: a NotLeader
// hint (consumed one-shot — a stale hint must not pin the client), then
// the ring starting at the last good index.
func (c *Client) dialOrder() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	order := make([]string, 0, len(c.addrs)+1)
	if c.leaderHint != "" {
		order = append(order, c.leaderHint)
		c.leaderHint = ""
	}
	for i := 0; i < len(c.addrs); i++ {
		a := c.addrs[(c.cur+i)%len(c.addrs)]
		if len(order) > 0 && order[0] == a {
			continue
		}
		order = append(order, a)
	}
	return order
}

// reconnect (re)establishes a connection and the session, walking the
// cluster ring until a node accepts the hello — the leader, under
// replication — and resuming the previous session when the server (or
// its replicated shadow) still remembers it. Concurrent callers
// collapse onto one attempt.
func (c *Client) reconnect(ctx context.Context) error {
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.conn != nil {
		c.mu.Unlock()
		return nil // another caller already reconnected
	}
	prev := c.session
	c.mu.Unlock()

	var lastErr error
	for _, addr := range c.dialOrder() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn, err := c.dialAddr(addr)
		if err != nil {
			lastErr = err
			continue
		}
		c.mu.Lock()
		c.conn = conn
		c.mu.Unlock()
		go c.readLoop(conn)

		resp, err := c.Call(ctx, lockd.Request{
			Op:      lockd.OpHello,
			Session: prev,
			Client:  c.o.Client,
			LeaseMs: c.o.Lease.Milliseconds(),
		})
		if err != nil {
			c.dropConn(conn)
			if ctx.Err() != nil {
				return err
			}
			lastErr = err
			continue
		}
		if !resp.OK {
			c.dropConn(conn)
			lastErr = &ServerError{Code: resp.Code, Msg: resp.Err}
			if resp.Code == lockd.CodeNotLeader {
				// A learner: chase the hint (when it carries one) before
				// the rest of the ring.
				c.mu.Lock()
				c.leaderHint = resp.LeaderAddr
				c.mu.Unlock()
				continue
			}
			return lastErr
		}
		c.mu.Lock()
		c.session = resp.Session
		c.lease = time.Duration(resp.LeaseMs) * time.Millisecond
		failedOver := c.lastAddr != "" && c.lastAddr != addr
		c.lastAddr = addr
		for i, a := range c.addrs {
			if a == addr {
				c.cur = i
			}
		}
		c.mu.Unlock()
		if failedOver {
			c.failovers.Add(1)
			// The backoff grew against a node that is gone; the fresh
			// node owes no such patience. Without this reset a client
			// that survived a failover would keep paying multi-second
			// delays earned entirely against the dead leader.
			c.bo.reset()
		}
		return nil
	}
	if lastErr == nil {
		lastErr = ErrConnLost
	}
	return lastErr
}

// redirect records a NotLeader hint (possibly empty, mid-election) and
// drops the current connection, so the next roundTrip re-dials toward
// the leader. The session id is kept — the new leader resumes it from
// the replicated state.
func (c *Client) redirect(hint string) {
	c.mu.Lock()
	if hint != "" {
		c.leaderHint = hint
	}
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		c.dropConn(conn)
	}
}

// dropConn tears down conn (if it is still current) and fails the calls
// pending on it.
func (c *Client) dropConn(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	c.conn = nil
	pend := c.pend
	c.pend = make(map[uint64]chan lockd.Response)
	c.mu.Unlock()
	for _, ch := range pend {
		close(ch) // receivers translate a closed channel to ErrConnLost
	}
}

// readLoop demultiplexes responses by ID until conn dies.
func (c *Client) readLoop(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		line, err := lockd.ReadLine(br, 0)
		if err != nil {
			c.dropConn(conn)
			return
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var resp lockd.Response
		if err := lockd.ParseResponse(line, &resp); err != nil {
			c.dropConn(conn)
			return
		}
		c.mu.Lock()
		ch := c.pend[resp.ID]
		delete(c.pend, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// Call performs one raw RPC on the current connection. Most callers want
// the retrying wrappers (Acquire, Release, ...); Call neither reconnects
// nor retries. The request's Session is filled in.
func (c *Client) Call(ctx context.Context, req lockd.Request) (lockd.Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return lockd.Response{}, ErrClosed
	}
	conn := c.conn
	if conn == nil {
		c.mu.Unlock()
		return lockd.Response{}, ErrConnLost
	}
	c.nextID++
	req.ID = c.nextID
	if req.Op != lockd.OpHello {
		req.Session = c.session
	}
	req.HLC = uint64(c.o.Clock.Now())
	addr := c.lastAddr
	var ch chan lockd.Response
	if k := len(c.spare); k > 0 {
		ch, c.spare = c.spare[k-1], c.spare[:k-1]
	} else {
		ch = make(chan lockd.Response, 1)
	}
	c.pend[req.ID] = ch
	sentNs := c.o.Clock.PhysNow()
	c.wbuf = lockd.AppendRequest(c.wbuf[:0], &req)
	_, err := conn.Write(c.wbuf)
	c.mu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pend, req.ID)
		c.mu.Unlock()
		c.dropConn(conn)
		return lockd.Response{}, ErrConnLost
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return lockd.Response{}, ErrConnLost
		}
		// readLoop sends at most one response per registration, so the
		// drained channel is free for the next call. Channels closed by
		// dropConn, or abandoned below (a late send may still land), are
		// never reused.
		c.mu.Lock()
		c.spare = append(c.spare, ch)
		c.mu.Unlock()
		// Close the causal loop and feed the skew estimate for the
		// server that answered.
		c.o.Clock.Update(hlc.Time(resp.HLC))
		if resp.WallNs != 0 {
			c.skewFor(addr).AddSample(sentNs, c.o.Clock.PhysNow(), resp.WallNs)
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pend, req.ID)
		c.mu.Unlock()
		return lockd.Response{}, ctx.Err()
	}
}

// skewFor returns (creating on first use) the skew estimator for one
// server address.
func (c *Client) skewFor(addr string) *hlc.SkewEstimator {
	c.skewMu.Lock()
	defer c.skewMu.Unlock()
	if c.skew == nil {
		c.skew = make(map[string]*hlc.SkewEstimator)
	}
	e := c.skew[addr]
	if e == nil {
		e = &hlc.SkewEstimator{}
		c.skew[addr] = e
	}
	return e
}

// AcquireOptions tune one acquisition.
type AcquireOptions struct {
	// Wait bounds the server-side queue wait per attempt; 0 accepts the
	// server default.
	Wait time.Duration
	// Hint selects the per-RPC waiting mode: "" (the lock's configured
	// policy), "spin" (poll without parking), or "try" (one attempt, no
	// wait).
	Hint string
	// Prio is the waiter priority under the priority/threshold
	// schedulers.
	Prio int64
}

// Acquire acquires the named lock, retrying with seeded exponential
// backoff + jitter through overload sheds and connection loss. The
// returned handle carries the fencing token.
func (c *Client) Acquire(ctx context.Context, lock string) (*Handle, error) {
	return c.AcquireWith(ctx, lock, AcquireOptions{})
}

// actor names this client in causal spans, matching the server's actor
// naming for the session so cross-process graph and span views agree.
func (c *Client) actor() string {
	if c.o.Client != "" {
		return c.o.Client
	}
	return fmt.Sprintf("session-%d", c.Session())
}

// acqTrace is the client-side causal context of one acquisition: the
// trace every span joins and the root "acquire" span the attempts and
// the server-side queue-wait parent on.
type acqTrace struct {
	c     *Client
	lock  string
	trace causal.TraceID
	root  causal.SpanID
	start int64
}

func (c *Client) newAcqTrace(lock string) *acqTrace {
	if c.o.NoTrace {
		return nil
	}
	return &acqTrace{
		c: c, lock: lock,
		trace: causal.NewTraceID(), root: causal.NewSpanID(),
		start: time.Now().UnixNano(),
	}
}

// child records one child span (an "rpc" attempt or a "backoff" gap)
// under the root. Nil-safe (tracing off).
func (t *acqTrace) child(name string, start int64, attrs map[string]string) {
	if t == nil {
		return
	}
	t.c.o.Recorder.Record(causal.Span{
		Trace: t.trace, ID: causal.NewSpanID(), Parent: t.root, Name: name,
		Actor: t.c.actor(), Object: t.lock,
		Start: start, End: time.Now().UnixNano(), Attrs: attrs,
	})
}

// traceID returns the acquisition's trace (zero when tracing is off).
// Nil-safe.
func (t *acqTrace) traceID() causal.TraceID {
	if t == nil {
		return 0
	}
	return t.trace
}

// finish closes the root span and stamps the handle with the trace.
// Nil-safe (tracing off).
func (t *acqTrace) finish(h *Handle, err error) {
	if t == nil {
		return
	}
	attrs := map[string]string{"outcome": "acquired"}
	switch {
	case err != nil:
		attrs["outcome"] = "failed"
		attrs["error"] = err.Error()
	case h != nil:
		attrs["token"] = fmt.Sprintf("%d", h.Token)
		h.Trace = t.trace
		if h.ServerSpan != 0 {
			attrs["server_span"] = h.ServerSpan.String()
		}
	}
	t.c.o.Recorder.Record(causal.Span{
		Trace: t.trace, ID: t.root, Name: "acquire",
		Actor: t.c.actor(), Object: t.lock,
		Start: t.start, End: time.Now().UnixNano(), Attrs: attrs,
	})
}

// AcquireWith is Acquire with per-acquisition options.
func (c *Client) AcquireWith(ctx context.Context, lock string, opts AcquireOptions) (*Handle, error) {
	tc := c.newAcqTrace(lock)
	start := time.Now()
	c.journalRec(journal.KindWait, lock, 0, tc.traceID(), 0)
	h, err := c.acquireAttempts(ctx, lock, opts, tc)
	tc.finish(h, err)
	switch {
	case err == nil:
		h.granted = time.Now()
		c.journalRec(journal.KindAcquire, lock, h.Token, tc.traceID(), time.Since(start))
	case errors.Is(err, ErrAcquireTimeout):
		c.journalRec(journal.KindTimeout, lock, 0, tc.traceID(), time.Since(start))
	default:
		c.journalRec(journal.KindAbort, lock, 0, tc.traceID(), time.Since(start))
	}
	return h, err
}

// journalRec appends one client-side record to the configured journal.
// Nil-safe: a no-op without Options.Journal.
func (c *Client) journalRec(kind journal.Kind, lock string, token uint64, trace causal.TraceID, dur time.Duration) {
	j := c.o.Journal
	if j == nil {
		return
	}
	// Instants come from the client's clock (which has merged every
	// server response seen so far), so a skewed client journals what
	// its clock actually read and still orders causally after the
	// server-side records of the same grant.
	j.Append(journal.Record{
		Kind: kind, Origin: journal.OriginClient,
		AtNs: c.o.Clock.PhysNow(), HLC: c.o.Clock.Now(), DurNs: int64(dur),
		Token: token, Trace: uint64(trace),
		Lock: j.InternLock(lock), Agent: j.InternAgent(c.actor()),
	})
}

// acquireAttempts runs the retry loop; tc (nil = tracing off) supplies
// the trace context injected into each wire request.
func (c *Client) acquireAttempts(ctx context.Context, lock string, opts AcquireOptions, tc *acqTrace) (*Handle, error) {
	var last error
	for attempt := 1; attempt <= c.o.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
		}
		req := lockd.Request{
			Op:       lockd.OpAcquire,
			Lock:     lock,
			WaitMs:   opts.Wait.Milliseconds(),
			WaitHint: opts.Hint,
			Prio:     opts.Prio,
			Attempt:  attempt,
		}
		if tc != nil {
			req.TraceID = tc.trace.String()
			req.ParentSpan = tc.root.String()
		}
		rpcStart := time.Now().UnixNano()
		resp, err := c.roundTrip(ctx, req)
		if tc != nil {
			rpcAttrs := map[string]string{"attempt": strconv.Itoa(attempt)}
			switch {
			case err != nil:
				rpcAttrs["error"] = err.Error()
			case !resp.OK:
				rpcAttrs["code"] = resp.Code
			}
			tc.child("rpc", rpcStart, rpcAttrs)
		}
		if err != nil {
			if errors.Is(err, ErrConnLost) {
				last = err
				if err := c.backoffSleep(ctx, c.bo.next(), tc); err != nil {
					return nil, err
				}
				continue
			}
			return nil, err
		}
		if resp.OK {
			c.bo.reset()
			c.noteToken(lock, resp.Token)
			return &Handle{
				Lock: lock, Token: resp.Token, Recovered: resp.Recovered,
				ServerSpan: causal.ParseSpanID(resp.ServerSpan),
			}, nil
		}
		switch resp.Code {
		case lockd.CodeOverloaded:
			c.sheds.Add(1)
			last = fmt.Errorf("%w: %s", ErrOverloaded, resp.Err)
			d := c.bo.next()
			if ra := time.Duration(resp.RetryAfterMs) * time.Millisecond; ra > d {
				d = ra
			}
			if err := c.backoffSleep(ctx, d, tc); err != nil {
				return nil, err
			}
		case lockd.CodeTimeout:
			return nil, fmt.Errorf("%w: %s", ErrAcquireTimeout, resp.Err)
		case lockd.CodeExpired:
			// The lease lapsed: drop the dead session and hello afresh.
			last = &ServerError{Code: resp.Code, Msg: resp.Err}
			c.invalidateConn()
		case lockd.CodeNotLeader, lockd.CodeUnavailable:
			// Mid-failover: no leader yet (roundTrip already chased the
			// hints it had), or a leader that cannot reach its quorum.
			// Both heal on the replication layer's timescale — back off
			// and try again.
			last = &ServerError{Code: resp.Code, Msg: resp.Err}
			c.redirect(resp.LeaderAddr)
			if err := c.backoffSleep(ctx, c.bo.next(), tc); err != nil {
				return nil, err
			}
		default:
			return nil, &ServerError{Code: resp.Code, Msg: resp.Err}
		}
	}
	if last == nil {
		last = ErrOverloaded
	}
	return nil, fmt.Errorf("lockclient: acquire %q: attempts exhausted: %w", lock, last)
}

// backoffSleep is sleep wrapped in a "backoff" span.
func (c *Client) backoffSleep(ctx context.Context, d time.Duration, tc *acqTrace) error {
	if d <= 0 {
		return nil
	}
	start := time.Now().UnixNano()
	err := c.sleep(ctx, d)
	tc.child("backoff", start, nil)
	return err
}

// Release releases a handle. It is idempotent (keyed by the fencing
// token) and retries through connection loss, so releasing after a
// reconnect, a lease recovery, or a duplicate release is safe.
func (c *Client) Release(ctx context.Context, h *Handle) error {
	for attempt := 1; attempt <= c.o.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
		}
		resp, err := c.roundTrip(ctx, lockd.Request{Op: lockd.OpRelease, Lock: h.Lock, Token: h.Token})
		if err != nil {
			if errors.Is(err, ErrConnLost) {
				if err := c.sleep(ctx, c.bo.next()); err != nil {
					return err
				}
				continue
			}
			return err
		}
		if resp.OK {
			c.bo.reset()
			c.journalRec(journal.KindRelease, h.Lock, h.Token, h.Trace, c.heldFor(h))
			return nil
		}
		switch resp.Code {
		case lockd.CodeExpired:
			// Session gone: the lease machinery already recovered the
			// lock; the release is moot.
			return nil
		case lockd.CodeNotLeader, lockd.CodeUnavailable:
			c.redirect(resp.LeaderAddr)
			if err := c.sleep(ctx, c.bo.next()); err != nil {
				return err
			}
			continue
		}
		return &ServerError{Code: resp.Code, Msg: resp.Err}
	}
	return fmt.Errorf("lockclient: release %q: attempts exhausted: %w", h.Lock, ErrConnLost)
}

// heldFor reports how long a handle was held (zero for a handle that
// never recorded its grant instant).
func (c *Client) heldFor(h *Handle) time.Duration {
	if h.granted.IsZero() {
		return 0
	}
	return time.Since(h.granted)
}

// Reconfigure switches the named lock's waiting policy and/or release
// scheduler over the wire (either may be empty). pending reports a
// scheduler change deferred by the configuration delay until the
// pre-registered waiters drain.
func (c *Client) Reconfigure(ctx context.Context, lock, policy, sched string) (pending bool, err error) {
	resp, err := c.roundTrip(ctx, lockd.Request{Op: lockd.OpReconfigure, Lock: lock, Policy: policy, Sched: sched})
	if err != nil {
		return false, err
	}
	if !resp.OK {
		return false, &ServerError{Code: resp.Code, Msg: resp.Err}
	}
	return resp.Pending, nil
}

// Heartbeat renews the lease once.
func (c *Client) Heartbeat(ctx context.Context) error {
	resp, err := c.roundTrip(ctx, lockd.Request{Op: lockd.OpHeartbeat})
	if err != nil {
		return err
	}
	if !resp.OK {
		return &ServerError{Code: resp.Code, Msg: resp.Err}
	}
	c.heartbeats.Add(1)
	return nil
}

// Stat fetches server counters and per-lock state.
func (c *Client) Stat(ctx context.Context) (*lockd.Stat, error) {
	resp, err := c.roundTrip(ctx, lockd.Request{Op: lockd.OpStat})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, &ServerError{Code: resp.Code, Msg: resp.Err}
	}
	return resp.Stat, nil
}

// roundTrip is Call plus transparent recovery: a lost connection is
// re-dialed (with session resume) and the request re-sent, a NotLeader
// rejection is followed to the hinted (or next) node. Two recoveries
// per call — enough for "conn died, and the node we landed on is a
// learner" — then the failure surfaces for the caller's retry loop.
func (c *Client) roundTrip(ctx context.Context, req lockd.Request) (lockd.Response, error) {
	for i := 0; i < 3; i++ {
		c.mu.Lock()
		disconnected := c.conn == nil && !c.closed
		c.mu.Unlock()
		if disconnected {
			c.reconnects.Add(1)
			if err := c.reconnect(ctx); err != nil {
				if errors.Is(err, ErrClosed) || ctx.Err() != nil {
					return lockd.Response{}, err
				}
				return lockd.Response{}, ErrConnLost
			}
		}
		resp, err := c.Call(ctx, req)
		if i+1 < 3 {
			if errors.Is(err, ErrConnLost) {
				continue
			}
			if err == nil && resp.Code == lockd.CodeNotLeader {
				c.redirect(resp.LeaderAddr)
				continue
			}
		}
		return resp, err
	}
	return lockd.Response{}, ErrConnLost
}

// invalidateConn forces the next roundTrip to re-dial and hello as a
// fresh session (used when the server reports the session expired).
func (c *Client) invalidateConn() {
	c.mu.Lock()
	conn := c.conn
	c.session = 0
	c.mu.Unlock()
	if conn != nil {
		c.dropConn(conn)
	}
}

// sleep waits d or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// heartbeatLoop keeps the lease alive until Close.
func (c *Client) heartbeatLoop(every time.Duration) {
	defer close(c.hbDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-tick.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), every)
		err := c.Heartbeat(ctx)
		cancel()
		if err != nil && errors.Is(err, ErrClosed) {
			return
		}
		// Other errors: roundTrip already attempted a reconnect; the
		// next tick tries again.
	}
}
