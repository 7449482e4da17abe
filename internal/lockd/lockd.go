// Package lockd is a lease-based network lock service fronting the
// configurable lock: a TCP/JSON-line server whose named locks are
// native.Mutex instances, with the distributed-systems robustness
// machinery the in-process lock cannot provide on its own.
//
//   - Sessions and leases: every client operates under a session with a
//     keepalive lease. A client that crashes, partitions away, or stops
//     heartbeating has its session expired and every lock it held
//     force-released through the mutex's DeclareOwnerDead path — the
//     distributed analogue of the paper's timeout waiting policies.
//   - Fencing tokens: every grant returns a per-lock monotonically
//     increasing token. Downstream resources that check tokens reject
//     writes from a stale (recovered-from) holder, so a zombie client
//     that wakes up after its lease expired cannot corrupt state.
//   - Overload shedding: each lock's wait queue is bounded; acquisitions
//     beyond the bound are refused immediately with CodeOverloaded and a
//     Retry-After hint instead of queueing without limit.
//   - Wire-level reconfiguration (the paper's Ψ): clients can switch a
//     served lock's waiting policy and release scheduler remotely;
//     scheduler changes keep the configuration-delay semantics (deferred
//     until pre-registered waiters drain, reported as Pending).
//
// Served locks register in an internal/telemetry Registry, so /metrics
// exposes per-lock counters plus the server's session/lease/shed/retry
// counters while it runs.
package lockd

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/causal"
	"repro/internal/hlc"
	"repro/internal/journal"
	"repro/internal/native"
	"repro/internal/telemetry"
)

// Config tunes a Server. The zero value serves with the defaults noted
// on each field.
type Config struct {
	// MaxWaiters bounds each lock's wait queue; acquisitions arriving
	// with MaxWaiters already waiting are shed with CodeOverloaded.
	// Default 64.
	MaxWaiters int
	// DefaultLease is granted to sessions that don't ask for one
	// (default 2s); MinLease/MaxLease clamp requested leases (defaults
	// 50ms / 1min).
	DefaultLease time.Duration
	MinLease     time.Duration
	MaxLease     time.Duration
	// SweepEvery is the lease-expiry scan interval. Default
	// DefaultLease/4, floored at 5ms.
	SweepEvery time.Duration
	// DefaultWait bounds acquisitions that don't set WaitMs. Default 10s.
	DefaultWait time.Duration
	// Policy and Scheduler configure newly created locks. Defaults:
	// native.CombinedPolicy, native.FIFO.
	Policy    *native.Policy
	Scheduler native.Scheduler
	// Registry, when non-nil, receives a telemetry entry per served lock
	// plus a "lockd" entry carrying the server counters and a waitgraph
	// entry exporting deadlock-suspicion metrics.
	Registry *telemetry.Registry
	// Causal observability (defaults: the causal package's process-wide
	// instances). Recorder receives server-side queue-wait and hold
	// spans — continuing the client's trace when the request carries
	// one; Graph the session-level holder/waiter edges feeding deadlock
	// detection; Flight the per-lock event rings behind /debug/flightrec
	// and the SIGQUIT dump.
	Recorder *causal.Recorder
	Graph    *causal.Graph
	Flight   *causal.Flight
	// Journal, when non-nil, records every served lock's lifecycle into
	// the binary event journal: server-side grants carry the session id,
	// fencing token, and the client's trace id, so journals written by
	// the server and its clients merge into one verifiable history.
	// Each served mutex additionally gets a native-level sink (under
	// "native/<name>") capturing watchdog and owner-death events.
	Journal *journal.Journal
	// WrapConn, when non-nil, wraps every accepted connection — the
	// fault-injection hook (see internal/fault.WrapConn).
	WrapConn func(net.Conn) net.Conn
	// Replica, when non-nil, puts the server in replicated mode: client
	// operations are gated on leadership and every state mutation is
	// quorum-replicated before it is acknowledged. See the Replica
	// interface in replication.go and internal/replica for the layer
	// itself.
	Replica Replica
	// Clock is the server's hybrid logical clock: merged with every
	// request's HLC before handling and stamped into every response, so
	// journaled events order after everything the requesting client had
	// seen. Default hlc.Default. Share one clock between the server,
	// its journal, and its replica node — they are one process.
	Clock *hlc.Clock
	// Logf, when non-nil, receives server diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxWaiters <= 0 {
		c.MaxWaiters = 64
	}
	if c.DefaultLease <= 0 {
		c.DefaultLease = 2 * time.Second
	}
	if c.MinLease <= 0 {
		c.MinLease = 50 * time.Millisecond
	}
	if c.MaxLease <= 0 {
		c.MaxLease = time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.DefaultLease / 4
	}
	if c.SweepEvery < 5*time.Millisecond {
		c.SweepEvery = 5 * time.Millisecond
	}
	if c.DefaultWait <= 0 {
		c.DefaultWait = 10 * time.Second
	}
	if c.Policy == nil {
		p := native.CombinedPolicy
		c.Policy = &p
	}
	if c.Recorder == nil {
		c.Recorder = causal.Default
	}
	if c.Graph == nil {
		c.Graph = causal.DefaultGraph
	}
	if c.Flight == nil {
		c.Flight = causal.DefaultFlight
	}
	if c.Clock == nil {
		c.Clock = hlc.Default
	}
	return c
}

// counters aggregates the server's robustness counters (see Counters for
// the wire shape).
type counters struct {
	sessionsOpened   atomic.Int64
	sessionsResumed  atomic.Int64
	sessionsExpired  atomic.Int64
	forcedReleases   atomic.Int64
	recoveredGrants  atomic.Int64
	sheds            atomic.Int64
	retries          atomic.Int64
	acquires         atomic.Int64
	releases         atomic.Int64
	staleReleases    atomic.Int64
	acquireTimeouts  atomic.Int64
	reconfigurations atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		SessionsOpened:   c.sessionsOpened.Load(),
		SessionsResumed:  c.sessionsResumed.Load(),
		SessionsExpired:  c.sessionsExpired.Load(),
		ForcedReleases:   c.forcedReleases.Load(),
		RecoveredGrants:  c.recoveredGrants.Load(),
		Sheds:            c.sheds.Load(),
		Retries:          c.retries.Load(),
		Acquires:         c.acquires.Load(),
		Releases:         c.releases.Load(),
		StaleReleases:    c.staleReleases.Load(),
		AcquireTimeouts:  c.acquireTimeouts.Load(),
		Reconfigurations: c.reconfigurations.Load(),
	}
}

// servedLock is one named lock. Holder bookkeeping lives beside the
// mutex: the mutex enforces exclusion, the bookkeeping binds the current
// tenure to a session and a fencing token.
type servedLock struct {
	name  string
	m     *native.Mutex
	entry *telemetry.NativeEntry
	jlock uint32 // interned journal id for name (0 = journaling off)

	mu            sync.Mutex
	fence         uint64 // last granted fencing token
	holderSession uint64 // 0 = free
	holderToken   uint64
	waiting       int
	sheds         int64

	// Causal bookkeeping for the running tenure (guarded by mu): the
	// trace the hold span joins, the queue-wait span it parents on, and
	// the holder's graph-node name.
	holdTrace  causal.TraceID
	holdParent causal.SpanID
	holdStart  time.Time
	holderName string
}

// session is one client session. Lock order: session.mu may be taken
// before servedLock.mu (the acquire path nests them); never the reverse.
type session struct {
	id     uint64
	client string
	lease  time.Duration

	mu       sync.Mutex
	deadline time.Time
	expired  bool
	held     map[string]uint64 // lock name -> fencing token
}

// renew extends the lease; it reports false if the session already
// expired.
func (s *session) renew() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expired {
		return false
	}
	s.deadline = time.Now().Add(s.lease)
	return true
}

// Server is a running lock service.
type Server struct {
	cfg    Config
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	locks       map[string]*servedLock
	sessions    map[uint64]*session
	conns       map[net.Conn]struct{}
	lastSession uint64
	closed      bool

	entry      *telemetry.Entry
	graphEntry *telemetry.Entry
	ctr        counters
}

// Serve starts a lock service on addr (e.g. ":7700" or "127.0.0.1:0").
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		ctx:      ctx,
		cancel:   cancel,
		locks:    make(map[string]*servedLock),
		sessions: make(map[uint64]*session),
		conns:    make(map[net.Conn]struct{}),
	}
	if cfg.Registry != nil {
		s.entry = cfg.Registry.RegisterSource("lockd", "lockd", s.telemetrySnapshot)
		s.graphEntry = cfg.Registry.RegisterWaitGraph("waitgraph", cfg.Graph)
		cfg.Registry.SetFlight(cfg.Flight)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.sweepLoop()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the service: the listener closes, in-flight acquisitions
// abort, and background loops drain. Held native locks are released so
// no goroutine stays parked.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	// Unblock serveConn read loops parked on idle connections.
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// Release whatever is still held so the mutexes end balanced.
	s.mu.Lock()
	locks := make([]*servedLock, 0, len(s.locks))
	for _, lk := range s.locks {
		locks = append(locks, lk)
	}
	s.mu.Unlock()
	for _, lk := range locks {
		lk.mu.Lock()
		if lk.holderSession != 0 {
			lk.holderSession, lk.holderToken = 0, 0
			lk.holderName = ""
			lk.m.Unlock()
		}
		lk.mu.Unlock()
		s.cfg.Graph.SetHolder(lk.name, "")
		if lk.entry != nil {
			lk.entry.Close()
		}
	}
	if s.entry != nil {
		s.entry.Close()
	}
	if s.graphEntry != nil {
		s.graphEntry.Close()
	}
	return err
}

// Counters snapshots the server's robustness counters.
func (s *Server) Counters() Counters { return s.ctr.snapshot() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// telemetrySnapshot is the registry pull for the server-level entry.
func (s *Server) telemetrySnapshot() telemetry.LockSnapshot {
	s.mu.Lock()
	sessions := int64(len(s.sessions))
	s.mu.Unlock()
	c := s.ctr.snapshot()
	name := "lockd"
	if s.entry != nil {
		name = s.entry.Name()
	}
	return telemetry.LockSnapshot{
		Name: name,
		Impl: "lockd",
		Extra: []telemetry.ExtraPoint{
			{Name: "lockd_sessions", Help: "Currently live sessions.", Gauge: true, Value: sessions},
			{Name: "lockd_sessions_opened_total", Help: "Sessions opened.", Value: c.SessionsOpened},
			{Name: "lockd_sessions_resumed_total", Help: "Sessions resumed after reconnect.", Value: c.SessionsResumed},
			{Name: "lockd_lease_expirations_total", Help: "Sessions expired by the lease sweeper.", Value: c.SessionsExpired},
			{Name: "lockd_forced_releases_total", Help: "Locks force-released from expired sessions.", Value: c.ForcedReleases},
			{Name: "lockd_recovered_grants_total", Help: "Grants inherited from a dead owner.", Value: c.RecoveredGrants},
			{Name: "lockd_shed_total", Help: "Acquisitions shed with CodeOverloaded.", Value: c.Sheds},
			{Name: "lockd_retries_total", Help: "Acquire attempts beyond a client's first try.", Value: c.Retries},
			{Name: "lockd_acquires_total", Help: "Successful acquisitions granted.", Value: c.Acquires},
			{Name: "lockd_releases_total", Help: "Token-matched releases performed.", Value: c.Releases},
			{Name: "lockd_stale_releases_total", Help: "Idempotent releases of stale tokens.", Value: c.StaleReleases},
			{Name: "lockd_acquire_timeouts_total", Help: "Acquisitions that waited out their deadline.", Value: c.AcquireTimeouts},
			{Name: "lockd_reconfigurations_total", Help: "Wire-level policy/scheduler reconfigurations.", Value: c.Reconfigurations},
		},
	}
}

// lock returns (creating on first use) the served lock named name.
func (s *Server) lock(name string) (*servedLock, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lk, ok := s.locks[name]; ok {
		return lk, nil
	}
	m, err := native.New(*s.cfg.Policy, s.cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	lk := &servedLock{name: name, m: m}
	// The mutex's one event sink feeds its telemetry entry and journal.
	var sinks []native.EventSink
	if s.cfg.Registry != nil {
		lk.entry = s.cfg.Registry.RegisterNative("lockd/"+name, m).ObserveLatency()
		sinks = append(sinks, lk.entry)
	}
	if s.cfg.Journal != nil {
		lk.jlock = s.cfg.Journal.InternLock(name)
		sinks = append(sinks, s.cfg.Journal.Sink("native/"+name))
	}
	m.SetEventSink(native.TeeSink(sinks...))
	s.locks[name] = lk
	return lk, nil
}

// journalRec appends one server-side record for a served lock. No-op
// without a journal. sess may be nil (server-initiated events).
func (s *Server) journalRec(kind journal.Kind, lk *servedLock, sess *session, tok uint64, tr causal.TraceID, dur time.Duration) {
	j := s.cfg.Journal
	if j == nil {
		return
	}
	// Both instants come from the server's clock — the one that merged
	// the requesting client's HLC — not the journal's, so a server
	// running on an injected (skewed) clock journals what that clock
	// actually read.
	rec := journal.Record{
		Kind:   kind,
		Origin: journal.OriginLockd,
		AtNs:   s.cfg.Clock.PhysNow(),
		HLC:    s.cfg.Clock.Now(),
		DurNs:  int64(dur),
		Token:  tok,
		Trace:  uint64(tr),
		Lock:   lk.jlock,
	}
	if sess != nil {
		rec.Tag = sess.id
		rec.Agent = j.InternAgent(actorName(sess))
	}
	j.Append(rec)
}

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.cfg.WrapConn != nil {
			c = s.cfg.WrapConn(c)
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn runs one connection: fast operations answer inline,
// acquisitions run on their own goroutines so heartbeats keep flowing on
// the same connection while an acquire waits. Responses are serialized
// by a write mutex; clients demultiplex by request ID.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	var (
		wmu  sync.Mutex
		wbuf []byte // the connection's reused reply buffer, under wmu
	)
	reply := func(r Response) {
		// Stamp the reply with the server's HLC and raw wall reading:
		// the former closes the causal loop at the caller, the latter
		// feeds its skew estimate for this server.
		r.HLC = uint64(s.cfg.Clock.Now())
		r.WallNs = s.cfg.Clock.PhysNow()
		wmu.Lock()
		defer wmu.Unlock()
		wbuf = AppendResponse(wbuf[:0], &r)
		if _, err := c.Write(wbuf); err != nil {
			// The peer is gone (or a fault injector dropped the conn);
			// the read loop will notice and unwind.
			s.logf("lockd: write to %s: %v", c.RemoteAddr(), err)
		}
	}

	var pending sync.WaitGroup
	br := bufio.NewReaderSize(c, 4096)
	var (
		long  []byte      // storage of the last line longer than br's buffer
		frame []byte      // storage of the connection's peer frames
		peer  PeerRequest // the connection's reused peer request
	)
	for {
		first, err := br.Peek(1)
		if err != nil {
			break
		}
		if first[0] == PeerFrameMagic {
			// A peer request frame: answered inline (strictly ordered per
			// conn) and never leadership-gated. A bad frame leaves no way
			// to find the next request, so it ends the connection.
			frame, err = readPeerFrame(br, maxLineBytes, frame)
			if err == nil {
				err = ParsePeerRequest(frame, &peer)
			}
			if err != nil {
				s.logf("lockd: peer frame from %s: %v", c.RemoteAddr(), err)
				break
			}
			s.cfg.Clock.Update(hlc.Time(peer.HLC))
			if s.cfg.Replica == nil {
				reply(Response{ID: peer.ID, Code: CodeBadRequest, Err: "replication not enabled"})
			} else {
				reply(s.cfg.Replica.HandleRepl(&peer))
			}
			continue
		}
		line, err := readLine(br, maxLineBytes, long)
		if len(line) > br.Size() {
			long = line[:0]
		}
		if err == errLineTooLong {
			// A protocol error, not connection death: the oversized line
			// has been consumed, so the conn keeps serving.
			reply(Response{Code: CodeBadRequest, Err: fmt.Sprintf("request line exceeds %d bytes", maxLineBytes)})
			continue
		}
		if err != nil {
			break
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req Request
		if err := ParseRequest(line, &req); err != nil {
			reply(Response{ID: req.ID, Code: CodeBadRequest, Err: "malformed request: " + err.Error()})
			continue
		}
		// Merge the sender's clock before any handler runs (or any
		// record is journaled) on this request's behalf.
		s.cfg.Clock.Update(hlc.Time(req.HLC))
		if s.cfg.Replica != nil {
			if g := s.cfg.Replica.Gate(); !g.Leader {
				reply(Response{ID: req.ID, Code: CodeNotLeader, Err: "not the leader",
					LeaderAddr: g.LeaderAddr, Term: g.Term})
				continue
			}
		}
		if req.Op == OpAcquire {
			req := req
			pending.Add(1)
			go func() {
				defer pending.Done()
				reply(s.handleAcquire(ctx, req))
			}()
			continue
		}
		reply(s.handle(req))
	}
	cancel() // abort this connection's in-flight acquisitions
	pending.Wait()
}

// maxLineBytes bounds one wire request line or peer frame.
const maxLineBytes = 1 << 20

// handle serves the fast (non-blocking) operations.
func (s *Server) handle(req Request) Response {
	switch req.Op {
	case OpHello:
		return s.handleHello(req)
	case OpHeartbeat:
		sess, resp := s.sessionFor(req)
		if sess == nil {
			return resp
		}
		return Response{ID: req.ID, OK: true, Session: sess.id, LeaseMs: sess.lease.Milliseconds()}
	case OpRelease:
		return s.handleRelease(req)
	case OpReconfigure:
		return s.handleReconfigure(req)
	case OpStat:
		return s.handleStat(req)
	case OpBye:
		return s.handleBye(req)
	}
	return Response{ID: req.ID, Code: CodeBadRequest, Err: fmt.Sprintf("unknown op %q", req.Op)}
}

// sessionFor resolves and renews the request's session; a nil session
// means the returned response is the error to send.
func (s *Server) sessionFor(req Request) (*session, Response) {
	s.mu.Lock()
	sess := s.sessions[req.Session]
	s.mu.Unlock()
	if sess == nil || !sess.renew() {
		return nil, Response{ID: req.ID, Code: CodeExpired, Err: "unknown or expired session"}
	}
	return sess, Response{}
}

func (s *Server) handleHello(req Request) Response {
	lease := s.cfg.DefaultLease
	if req.LeaseMs > 0 {
		lease = time.Duration(req.LeaseMs) * time.Millisecond
		if lease < s.cfg.MinLease {
			lease = s.cfg.MinLease
		}
		if lease > s.cfg.MaxLease {
			lease = s.cfg.MaxLease
		}
	}
	// Resume: a reconnecting client keeps its session (and its held
	// locks) as long as the lease never lapsed.
	if req.Session != 0 {
		s.mu.Lock()
		sess := s.sessions[req.Session]
		s.mu.Unlock()
		if sess != nil && sess.renew() {
			s.ctr.sessionsResumed.Add(1)
			return Response{ID: req.ID, OK: true, Session: sess.id, LeaseMs: sess.lease.Milliseconds(), Resumed: true}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Response{ID: req.ID, Code: CodeShutdown, Err: "server shutting down"}
	}
	s.lastSession++
	sess := &session{
		id:       s.lastSession,
		client:   req.Client,
		lease:    lease,
		deadline: time.Now().Add(lease),
		held:     make(map[string]uint64),
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	// Replicated mode: the session must exist on a quorum before the
	// client learns its id, or a promoted learner would expire grants
	// bound to a session it never heard of.
	if err := s.propose(Mutation{Kind: journal.KindSessionOpen, Session: sess.id, Agent: sess.client, DurNs: int64(lease)}); err != nil {
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		return Response{ID: req.ID, Code: CodeUnavailable, Err: "replication quorum unavailable: " + err.Error()}
	}
	s.journalSession(journal.KindSessionOpen, sess.id, sess.client, lease)
	s.ctr.sessionsOpened.Add(1)
	return Response{ID: req.ID, OK: true, Session: sess.id, LeaseMs: lease.Milliseconds()}
}

// handleAcquire runs on its own goroutine (it may wait).
func (s *Server) handleAcquire(ctx context.Context, req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	if req.Lock == "" {
		return Response{ID: req.ID, Code: CodeBadRequest, Err: "acquire without a lock name"}
	}
	if req.Attempt > 1 {
		s.ctr.retries.Add(1)
	}
	lk, err := s.lock(req.Lock)
	if err != nil {
		return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
	}

	// Admission: duplicate acquires answer with the existing grant (a
	// lost-reply retry), and a full wait queue sheds instead of queueing.
	lk.mu.Lock()
	if lk.holderSession == sess.id {
		tok := lk.holderToken
		lk.mu.Unlock()
		return Response{ID: req.ID, OK: true, Code: CodeAlreadyHeld, Token: tok}
	}
	if lk.waiting >= s.cfg.MaxWaiters {
		lk.sheds++
		waiting := lk.waiting
		lk.mu.Unlock()
		s.ctr.sheds.Add(1)
		s.recordWait(&queueWait{lk: lk, sess: sess, tr: causal.ParseTraceID(req.TraceID)}, journal.KindAbort, "", 0)
		// Retry-After scales with the queue: a deeper backlog pushes
		// retries further out.
		hint := time.Duration(waiting) * 10 * time.Millisecond
		if hint < 10*time.Millisecond {
			hint = 10 * time.Millisecond
		}
		return Response{
			ID: req.ID, Code: CodeOverloaded,
			Err:          fmt.Sprintf("lock %q wait queue full (%d waiting)", req.Lock, waiting),
			RetryAfterMs: hint.Milliseconds(),
		}
	}
	lk.waiting++
	lk.mu.Unlock()
	defer func() {
		lk.mu.Lock()
		lk.waiting--
		lk.mu.Unlock()
	}()

	// Causal: continue the client's trace when the request carries one
	// (so client backoff + queue wait + hold share a trace), otherwise
	// start a server-local trace; register the wait edge for deadlock
	// detection.
	actor := actorName(sess)
	tr := causal.ParseTraceID(req.TraceID)
	if tr == 0 {
		tr = causal.NewTraceID()
	}
	q := &queueWait{
		lk: lk, sess: sess, actor: actor, tr: tr,
		span: causal.NewSpanID(), parent: causal.ParseSpanID(req.ParentSpan), start: time.Now(),
	}
	s.recordWait(q, journal.KindWait, "", 0)

	wait := s.cfg.DefaultWait
	if req.WaitMs > 0 {
		wait = time.Duration(req.WaitMs) * time.Millisecond
	}
	actx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()

	recovered := false
	switch req.WaitHint {
	case "", "block":
		err = lk.m.AcquireCtxAs(actx, 0, req.Prio)
	case "spin", "try":
		// The per-RPC impatient path (hint "try" polls exactly once).
		err = s.spinAcquire(actx, lk, req.WaitHint == "try")
	default:
		return Response{ID: req.ID, Code: CodeBadRequest, Err: fmt.Sprintf("unknown wait hint %q", req.WaitHint)}
	}
	if errors.Is(err, native.ErrOwnerDied) {
		// Robust-mutex semantics: the caller owns the lock, inherited
		// from a dead session. Surface it so the client can repair.
		recovered = true
		err = nil
		s.ctr.recoveredGrants.Add(1)
	}
	if err != nil {
		if ctx.Err() != nil {
			s.recordWait(q, journal.KindAbort, "aborted", 0)
			return Response{ID: req.ID, Code: CodeShutdown, Err: "connection or server closing"}
		}
		s.ctr.acquireTimeouts.Add(1)
		s.recordWait(q, journal.KindTimeout, "timeout", 0)
		return Response{ID: req.ID, Code: CodeTimeout, Err: fmt.Sprintf("lock %q not acquired within %v", req.Lock, wait)}
	}

	// Replicated mode: mint the token now and ship the grant to a
	// quorum BEFORE acknowledging — a promoted learner must know every
	// token ever granted. Holding the native mutex serializes grants on
	// this lock, so reading fence without keeping lk.mu across the
	// network round-trip is safe: nothing else can advance it.
	var tok uint64
	if s.cfg.Replica != nil {
		lk.mu.Lock()
		tok = lk.fence + 1
		lk.mu.Unlock()
		if err := s.propose(Mutation{
			Kind: journal.KindAcquire, Lock: req.Lock, Agent: actor,
			Session: sess.id, Token: tok, Trace: uint64(tr), DurNs: int64(time.Since(q.start)),
		}); err != nil {
			// No quorum. The entry stays in the local log (it may already
			// sit on some learners), so burn the token and append a
			// compensating release — then give the grant back.
			lk.mu.Lock()
			if lk.fence < tok {
				lk.fence = tok
			}
			lk.mu.Unlock()
			s.propose(Mutation{Kind: journal.KindRelease, Lock: req.Lock, Agent: actor, Session: sess.id, Token: tok}) //nolint:errcheck // best-effort compensation
			lk.m.Unlock()
			s.recordWait(q, journal.KindAbort, "unreplicated", 0)
			return Response{ID: req.ID, Code: CodeUnavailable, Err: "replication quorum unavailable: " + err.Error()}
		}
	}

	// Grant: bind the tenure to the session under session.mu so the
	// lease sweeper can never observe a half-recorded holder, and mint
	// the fencing token. (Lock order: session.mu, then servedLock.mu.)
	sess.mu.Lock()
	if sess.expired {
		sess.mu.Unlock()
		if tok != 0 {
			// The replicated grant must not dangle: burn the token and
			// log the give-back.
			lk.mu.Lock()
			if lk.fence < tok {
				lk.fence = tok
			}
			lk.mu.Unlock()
			s.propose(Mutation{Kind: journal.KindRelease, Lock: req.Lock, Agent: actor, Session: sess.id, Token: tok}) //nolint:errcheck // best-effort compensation
		}
		lk.m.Unlock() // lease lapsed while we waited: give the grant back
		s.recordWait(q, journal.KindAbort, "expired", 0)
		return Response{ID: req.ID, Code: CodeExpired, Err: "session lease expired while waiting"}
	}
	lk.mu.Lock()
	if tok != 0 {
		lk.fence = tok
	} else {
		lk.fence++
		tok = lk.fence
	}
	lk.holderSession, lk.holderToken = sess.id, tok
	lk.holdTrace, lk.holdParent = tr, q.span
	lk.holdStart, lk.holderName = time.Now(), actor
	lk.mu.Unlock()
	sess.held[req.Lock] = tok
	sess.mu.Unlock()
	s.ctr.acquires.Add(1)
	outcome := "acquired"
	if recovered {
		outcome = "recovered"
	}
	s.recordWait(q, journal.KindAcquire, outcome, tok)
	resp = Response{ID: req.ID, OK: true, Token: tok, Recovered: recovered}
	if req.TraceID != "" {
		resp.ServerSpan = q.span.String()
	}
	return resp
}

// queueWait is one acquisition's passage through a served lock's
// queue: who waits, under which trace, and since when.
type queueWait struct {
	lk     *servedLock
	sess   *session
	actor  string
	tr     causal.TraceID
	span   causal.SpanID // the queue-wait span; parent of the hold span
	parent causal.SpanID
	start  time.Time // zero when the request never queued (a shed, a reconfigure)
}

// waitExits maps how a queue wait ended other than in a grant — the
// outcome its span records — to the flight record of that exit.
var waitExits = map[string]struct{ kind, detail string }{
	"timeout":      {"timeout", ""},
	"aborted":      {"abort", "connection or server closing"},
	"unreplicated": {"abort", "replication quorum unavailable"},
	"expired":      {"abort", "lease expired while waiting"},
}

// recordWait is the one place a queue-wait transition reaches the
// wait-for graph, flight ring, span recorder and journal, so the four
// views cannot drift apart. KindWait opens the wait. A non-empty
// outcome ends it: the wait edge comes off, the queue-wait span closes,
// and on a grant (tok, the fencing token, nonzero) the hold edge goes
// on — after the wait edge is off, so the graph never shows a
// transient self-cycle. A request that never queued (q.start zero: a
// shed, a reconfigure) reaches the journal only.
func (s *Server) recordWait(q *queueWait, kind journal.Kind, outcome string, tok uint64) {
	name := q.lk.name
	var waited time.Duration
	switch {
	case kind == journal.KindWait:
		s.cfg.Graph.AddWait(q.actor, name)
		s.cfg.Flight.Record(name, "wait", q.actor, "trace="+q.tr.String())
	case outcome != "":
		waited = time.Since(q.start)
		s.cfg.Graph.RemoveWait(q.actor, name)
		span := causal.Span{
			Trace: q.tr, ID: q.span, Parent: q.parent,
			Name: "queue-wait", Actor: q.actor, Object: name,
			Start: q.start.UnixNano(), End: q.start.Add(waited).UnixNano(),
			Attrs: map[string]string{"outcome": outcome},
		}
		exit := waitExits[outcome]
		if tok != 0 {
			s.cfg.Graph.SetHolder(name, q.actor)
			span.Attrs["token"] = strconv.FormatUint(tok, 10)
			exit.kind, exit.detail = "acquire", "token="+strconv.FormatUint(tok, 10)+" trace="+q.tr.String()
		}
		s.cfg.Recorder.Record(span)
		s.cfg.Flight.Record(name, exit.kind, q.actor, exit.detail)
	}
	s.journalRec(kind, q.lk, q.sess, tok, q.tr, waited)
}

// actorName is a session's node name in the wait-for graph and flight
// recorder: the client-reported name, or a session-id fallback.
func actorName(sess *session) string {
	if sess.client != "" {
		return sess.client
	}
	return fmt.Sprintf("session-%d", sess.id)
}

// endTenure ends lk's running tenure, held by sess under token tok:
// it clears the holder fields, records the end in the four views (the
// hold span's cause says why: released, bye, lease-expired), and only
// then gives the mutex back, so the next holder's records always follow
// these. A forced end goes through DeclareOwnerDead, so the next
// acquirer inherits the owner-died notification. Called with lk.mu
// held; returns with it released.
func (s *Server) endTenure(lk *servedLock, sess *session, tok uint64, forced bool, cause string) {
	holder, tr, parent, start := lk.holderName, lk.holdTrace, lk.holdParent, lk.holdStart
	lk.holderSession, lk.holderToken, lk.holderName = 0, 0, ""
	lk.mu.Unlock()
	held := time.Since(start)
	s.cfg.Graph.SetHolder(lk.name, "")
	s.cfg.Recorder.Record(causal.Span{
		Trace: tr, ID: causal.NewSpanID(), Parent: parent,
		Name: "hold", Actor: holder, Object: lk.name,
		Start: start.UnixNano(), End: start.Add(held).UnixNano(),
		Attrs: map[string]string{"cause": cause, "token": strconv.FormatUint(tok, 10)},
	})
	flightKind, jkind := "release", journal.KindRelease
	if forced {
		flightKind, jkind = "expired", journal.KindOwnerDead
	}
	s.cfg.Flight.Record(lk.name, flightKind, holder, "token="+strconv.FormatUint(tok, 10))
	s.journalRec(jkind, lk, sess, tok, tr, held)
	if !forced {
		lk.m.Unlock()
		s.ctr.releases.Add(1)
		return
	}
	if err := lk.m.DeclareOwnerDead(); err != nil {
		s.logf("lockd: recover %q from session %d: %v", lk.name, sess.id, err)
	} else {
		s.ctr.forcedReleases.Add(1)
	}
}

// spinAcquire polls the lock until success or deadline — the wire-level
// "spin" wait hint (per-RPC spin vs. sleep, à la Mutable Locks). Each
// poll is a deadline-bounded AcquireCtx rather than TryLock, because
// TryLock would silently consume a pending owner-death notification;
// this way a recovered tenure is inherited exactly like the queued path.
func (s *Server) spinAcquire(ctx context.Context, lk *servedLock, once bool) error {
	for {
		tctx, cancel := context.WithTimeout(ctx, time.Millisecond)
		err := lk.m.AcquireCtx(tctx)
		cancel()
		if err == nil || errors.Is(err, native.ErrOwnerDied) {
			return err
		}
		if once {
			return context.DeadlineExceeded
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		runtime.Gosched()
	}
}

func (s *Server) handleRelease(req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	s.mu.Lock()
	lk := s.locks[req.Lock]
	s.mu.Unlock()
	if lk == nil {
		s.ctr.staleReleases.Add(1)
		return Response{ID: req.ID, OK: true, Code: CodeStaleToken}
	}
	// Replicated mode: a live release is a state mutation — quorum-ack it
	// before the lock moves. If the tenure ends concurrently (sweeper),
	// the proposed release becomes a harmless duplicate in the log.
	if s.cfg.Replica != nil {
		lk.mu.Lock()
		live := lk.holderSession == sess.id && lk.holderToken == req.Token
		lk.mu.Unlock()
		if live {
			if err := s.propose(Mutation{
				Kind: journal.KindRelease, Lock: req.Lock, Agent: actorName(sess),
				Session: sess.id, Token: req.Token,
			}); err != nil {
				return Response{ID: req.ID, Code: CodeUnavailable, Err: "replication quorum unavailable: " + err.Error()}
			}
		}
	}
	sess.mu.Lock()
	if sess.held[req.Lock] == req.Token {
		delete(sess.held, req.Lock)
	}
	sess.mu.Unlock()
	lk.mu.Lock()
	if lk.holderSession == sess.id && lk.holderToken == req.Token {
		s.endTenure(lk, sess, req.Token, false, "released")
		return Response{ID: req.ID, OK: true, Token: req.Token}
	}
	lk.mu.Unlock()
	// Already released, recovered, or re-granted: idempotent success.
	s.ctr.staleReleases.Add(1)
	return Response{ID: req.ID, OK: true, Code: CodeStaleToken}
}

func (s *Server) handleReconfigure(req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	if req.Lock == "" || (req.Policy == "" && req.Sched == "") {
		return Response{ID: req.ID, Code: CodeBadRequest, Err: "reconfigure needs a lock and a policy and/or sched"}
	}
	lk, err := s.lock(req.Lock)
	if err != nil {
		return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
	}
	// Validate before replicating so a bad request never reaches the log.
	var pol native.Policy
	if req.Policy != "" {
		if pol, err = ParsePolicy(req.Policy); err != nil {
			return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
		}
	}
	var sched native.Scheduler
	if req.Sched != "" {
		if sched, err = ParseScheduler(req.Sched); err != nil {
			return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
		}
	}
	if err := s.propose(Mutation{
		Kind: journal.KindReconfig, Lock: req.Lock, Agent: actorName(sess),
		Session: sess.id, Policy: req.Policy, Sched: req.Sched,
	}); err != nil {
		return Response{ID: req.ID, Code: CodeUnavailable, Err: "replication quorum unavailable: " + err.Error()}
	}
	if req.Policy != "" {
		if err := lk.m.SetPolicy(pol); err != nil {
			return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
		}
	}
	pending := false
	if req.Sched != "" {
		if err := lk.m.SetScheduler(sched); err != nil {
			return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
		}
		_, pending = lk.m.PendingScheduler()
	}
	s.ctr.reconfigurations.Add(1)
	s.recordWait(&queueWait{lk: lk, sess: sess}, journal.KindReconfig, "", 0)
	return Response{ID: req.ID, OK: true, Pending: pending}
}

func (s *Server) handleStat(req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	s.mu.Lock()
	stat := &Stat{Sessions: len(s.sessions)}
	locks := make([]*servedLock, 0, len(s.locks))
	for _, lk := range s.locks {
		locks = append(locks, lk)
	}
	s.mu.Unlock()
	sort.Slice(locks, func(i, j int) bool { return locks[i].name < locks[j].name })
	for _, lk := range locks {
		lk.mu.Lock()
		stat.Locks = append(stat.Locks, LockStat{
			Name:          lk.name,
			Held:          lk.holderSession != 0,
			HolderSession: lk.holderSession,
			Token:         lk.fence,
			Waiting:       lk.waiting,
			Sheds:         lk.sheds,
		})
		lk.mu.Unlock()
	}
	stat.Counters = s.ctr.snapshot()
	return Response{ID: req.ID, OK: true, Stat: stat}
}

func (s *Server) handleBye(req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	s.endSession(sess, false)
	return Response{ID: req.ID, OK: true}
}

// endSession retires a session, releasing (forced=false, clean Unlock)
// or recovering (forced=true, DeclareOwnerDead) every lock it holds.
func (s *Server) endSession(sess *session, forced bool) {
	sess.mu.Lock()
	if sess.expired {
		sess.mu.Unlock()
		return
	}
	sess.expired = true
	held := make(map[string]uint64, len(sess.held))
	for n, t := range sess.held {
		held[n] = t
	}
	sess.mu.Unlock()

	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()

	for name, tok := range held {
		s.mu.Lock()
		lk := s.locks[name]
		s.mu.Unlock()
		if lk == nil {
			continue
		}
		// Replicated mode: ship the tenure's end, best-effort — a leader
		// that lost quorum must still recover locally (its lease will
		// fence it shortly), and a demoted replica must not propose.
		mkind := journal.KindRelease
		if forced {
			mkind = journal.KindOwnerDead
		}
		s.proposeIfLeader(Mutation{Kind: mkind, Lock: name, Agent: actorName(sess), Session: sess.id, Token: tok})
		lk.mu.Lock()
		if lk.holderSession != sess.id || lk.holderToken != tok {
			lk.mu.Unlock()
			continue
		}
		cause := "bye"
		if forced {
			cause = "lease-expired"
		}
		s.endTenure(lk, sess, tok, forced, cause)
	}
	s.proposeIfLeader(Mutation{Kind: journal.KindSessionEnd, Session: sess.id, Agent: sess.client})
	s.journalSession(journal.KindSessionEnd, sess.id, sess.client, 0)
	if forced {
		s.ctr.sessionsExpired.Add(1)
		s.logf("lockd: session %d (%s) lease expired; recovered %d lock(s)", sess.id, sess.client, len(held))
	}
}

// sweepLoop expires sessions whose lease lapsed.
func (s *Server) sweepLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-tick.C:
		}
		now := time.Now()
		s.mu.Lock()
		var expired []*session
		for _, sess := range s.sessions {
			sess.mu.Lock()
			if !sess.expired && sess.deadline.Before(now) {
				expired = append(expired, sess)
			}
			sess.mu.Unlock()
		}
		s.mu.Unlock()
		sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
		for _, sess := range expired {
			s.endSession(sess, true)
		}
	}
}
