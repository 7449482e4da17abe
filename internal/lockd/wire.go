package lockd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/native"
)

// This file is the wire protocol and its JSON codec, spoken by all
// three parties on a lockd socket: the server (serveConn),
// internal/lockclient, and internal/replica's peer links. Clients send
// newline-delimited JSON, one Request per line; replicas send each
// other binary PeerRequest frames (peer.go) on the same kind of
// socket, and the server tells the two apart by a request's first
// byte. Every response, to a client or a peer, is one JSON Response
// line. Responses carry the request's ID and may arrive out of order
// (the server answers fast operations inline but blocks acquisitions
// on their own goroutines), so callers demultiplex by ID.
//
// The JSON codec (AppendRequest/ParseRequest, AppendResponse/
// ParseResponse, ReadLine) is hand-written so a message costs no
// reflection and almost no allocation: encoders append into a
// caller-owned buffer reused per connection, and the decoders walk the
// canonical line in place. It is byte-identical to encoding/json — the
// encoders write exactly what json.Marshal writes, and the decoders
// accept, reject and decode exactly what json.Unmarshal does. That
// keeps the client wire unchanged: external clients that speak plain
// JSON, and tools that read the `{"id":N,"op":"..."` prefix of each
// line or count messages by newline, see the same bytes. The rare
// constructs the hand-written paths skip (escaped or non-ASCII
// strings, case-folded or unknown keys, null, exotic numbers, stat
// bodies) go through encoding/json inside the codec, for that value or
// that line only; the package's fuzzers hold both directions equal to
// encoding/json. On a peer link each request is still one write and
// each response still one newline-terminated line, so a tool counting
// peer messages that way counts the same; only the request bytes are
// binary now, and no JSON line ever starts a peer link.

// Operation names.
const (
	// OpHello opens (or, with Session set, resumes) a session. The
	// response carries the session ID and the granted lease.
	OpHello = "hello"
	// OpAcquire acquires a named lock for the session. The response
	// carries the fencing token; Recovered marks a grant inherited from
	// a dead owner (repair the protected state before trusting it).
	OpAcquire = "acquire"
	// OpRelease releases a named lock, idempotently, keyed by the
	// fencing token: releasing an already-released or re-granted lock is
	// OK (code stale-token), so clients retry releases freely.
	OpRelease = "release"
	// OpHeartbeat renews the session lease.
	OpHeartbeat = "heartbeat"
	// OpReconfigure changes a served lock's waiting policy and/or
	// release scheduler — the paper's Ψ over the wire. Scheduler changes
	// keep the configuration-delay semantics: with waiters registered
	// the change is deferred (Pending in the response) until the
	// pre-registered waiters have been served.
	OpReconfigure = "reconfigure"
	// OpStat reports server counters and per-lock state.
	OpStat = "stat"
	// OpBye ends the session, releasing every lock it still holds.
	OpBye = "bye"
	// OpReplAppend ships replication-log entries (and, with no entries,
	// leader heartbeats) from the leader to a learner. Peer-to-peer
	// only, and like the other two peer ops it travels as a binary
	// PeerRequest frame, never as a JSON line (a JSON line naming it is
	// an unknown op).
	OpReplAppend = "repl-append"
	// OpReplVote requests a leadership vote for Term from a peer.
	OpReplVote = "repl-vote"
	// OpReplSnapshot installs the leader's snapshot on a learner whose
	// next entry the leader has already compacted away. The snapshot is
	// the state at log index PrevIndex (of term PrevTerm), rendered as
	// synthetic mutations in Entries and shipped in pieces: Offset counts
	// the entries of earlier pieces, and Done marks the last.
	// Peer-to-peer only.
	OpReplSnapshot = "repl-snapshot"
)

// Response codes (Code is empty on a plain success).
const (
	// CodeOverloaded sheds an acquisition because the lock's wait queue
	// is at its bound; RetryAfterMs hints when to retry.
	CodeOverloaded = "overloaded"
	// CodeTimeout reports an acquisition that waited out WaitMs.
	CodeTimeout = "timeout"
	// CodeExpired rejects an operation on an unknown or lease-expired
	// session; the client must hello again.
	CodeExpired = "expired"
	// CodeAlreadyHeld answers an acquire for a lock the session already
	// holds with the existing grant's fencing token (the protocol is
	// non-reentrant; the duplicate is a lost-reply retry).
	CodeAlreadyHeld = "already-held"
	// CodeStaleToken answers a release whose token no longer names the
	// current grant: the lock was already released or recovered. The
	// release is still OK (idempotent).
	CodeStaleToken = "stale-token"
	// CodeBadRequest rejects a malformed or unknown request.
	CodeBadRequest = "bad-request"
	// CodeShutdown rejects requests arriving while the server drains.
	CodeShutdown = "shutting-down"
	// CodeNotLeader rejects a client operation sent to a replica that is
	// not the cluster leader; LeaderAddr in the response hints where to
	// go instead (empty mid-election).
	CodeNotLeader = "not-leader"
	// CodeUnavailable rejects a state mutation the leader could not
	// replicate to a quorum — retriable once the cluster heals or a new
	// leader emerges.
	CodeUnavailable = "unavailable"
)

// Request is one client->server message.
type Request struct {
	ID      uint64 `json:"id"`
	Op      string `json:"op"`
	Session uint64 `json:"session,omitempty"`
	Lock    string `json:"lock,omitempty"`

	// hello
	Client  string `json:"client,omitempty"`
	LeaseMs int64  `json:"lease_ms,omitempty"`

	// acquire
	WaitMs   int64  `json:"wait_ms,omitempty"`
	WaitHint string `json:"wait_hint,omitempty"` // "" (lock policy), "spin", "try"
	Prio     int64  `json:"prio,omitempty"`
	Attempt  int    `json:"attempt,omitempty"` // 1-based; >1 counts as a retry

	// Causal trace context (optional): the client's trace ID and the span
	// the server-side work should parent on, both 16-hex-digit (see
	// internal/causal). The server continues the trace — its queue-wait
	// and hold spans join the client's — so one trace covers client
	// backoff + server queue wait + hold across processes.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`

	// HLC is the sender's hybrid logical clock at send time (see
	// internal/hlc). The receiver merges it before acting, so events it
	// journals on behalf of this request order after everything the
	// sender had seen. Zero from pre-HLC clients — merging is a no-op.
	HLC uint64 `json:"hlc,omitempty"`

	// release
	Token uint64 `json:"token,omitempty"`

	// reconfigure
	Policy string `json:"policy,omitempty"`
	Sched  string `json:"sched,omitempty"`
}

// Response is one server->client message.
type Response struct {
	ID   uint64 `json:"id"`
	OK   bool   `json:"ok"`
	Code string `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`

	Session      uint64 `json:"session,omitempty"`
	LeaseMs      int64  `json:"lease_ms,omitempty"`
	Resumed      bool   `json:"resumed,omitempty"`
	Token        uint64 `json:"token,omitempty"`
	Recovered    bool   `json:"recovered,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	Pending      bool   `json:"pending,omitempty"`
	Stat         *Stat  `json:"stat,omitempty"`

	// ServerSpan echoes, on a granted acquire that carried trace context,
	// the server-side queue-wait span ID, so client logs can name the
	// cross-process child span.
	ServerSpan string `json:"server_span,omitempty"`

	// HLC is the responder's hybrid logical clock at reply time — the
	// caller merges it, closing the causal loop. WallNs is the
	// responder's raw physical clock at the same moment, deliberately
	// unmerged: paired with the caller's send/receive instants it bounds
	// the responder's clock offset to an RTT-wide interval (see
	// hlc.SkewEstimator), which is how per-peer skew telemetry is fed.
	HLC    uint64 `json:"hlc,omitempty"`
	WallNs int64  `json:"wall_ns,omitempty"`

	// Replication: the responder's term rides on repl responses and on
	// NotLeader rejections; NextIndex is the learner's log length after
	// an append (the leader's resend cursor on a consistency reject);
	// LeaderAddr is the NotLeader redirect hint.
	Term       uint64 `json:"term,omitempty"`
	NextIndex  uint64 `json:"next_index,omitempty"`
	LeaderAddr string `json:"leader_addr,omitempty"`
}

// LockStat is one served lock's state in a stat response.
type LockStat struct {
	Name          string `json:"name"`
	Held          bool   `json:"held"`
	HolderSession uint64 `json:"holder_session,omitempty"`
	Token         uint64 `json:"token"` // last granted fencing token
	Waiting       int    `json:"waiting"`
	Sheds         int64  `json:"sheds"`
}

// Counters are the server's cumulative robustness counters.
type Counters struct {
	SessionsOpened   int64 `json:"sessions_opened"`
	SessionsResumed  int64 `json:"sessions_resumed"`
	SessionsExpired  int64 `json:"sessions_expired"`
	ForcedReleases   int64 `json:"forced_releases"` // lease-expiry DeclareOwnerDead recoveries
	RecoveredGrants  int64 `json:"recovered_grants"`
	Sheds            int64 `json:"sheds"`
	Retries          int64 `json:"retries"` // acquire attempts with Attempt > 1
	Acquires         int64 `json:"acquires"`
	Releases         int64 `json:"releases"`
	StaleReleases    int64 `json:"stale_releases"`
	AcquireTimeouts  int64 `json:"acquire_timeouts"`
	Reconfigurations int64 `json:"reconfigurations"`
}

// Stat is the stat response body.
type Stat struct {
	Sessions int        `json:"sessions"`
	Locks    []LockStat `json:"locks"`
	Counters Counters   `json:"counters"`
}

// PolicyNames documents ParsePolicy's accepted names.
const PolicyNames = "spin|backoff|block|sleep|combined"

// ParsePolicy maps a wire policy name to the native waiting policy.
func ParsePolicy(s string) (native.Policy, error) {
	switch s {
	case "spin":
		return native.SpinPolicy, nil
	case "backoff":
		return native.BackoffPolicy, nil
	case "block", "sleep":
		return native.BlockPolicy, nil
	case "combined":
		return native.CombinedPolicy, nil
	}
	return native.Policy{}, fmt.Errorf("lockd: unknown policy %q (want %s)", s, PolicyNames)
}

// SchedulerNames documents ParseScheduler's accepted names.
const SchedulerNames = "fifo|priority|threshold|handoff"

// ParseScheduler maps a wire scheduler name to the native scheduler.
func ParseScheduler(s string) (native.Scheduler, error) {
	switch s {
	case "fifo":
		return native.FIFO, nil
	case "priority":
		return native.Priority, nil
	case "threshold":
		return native.Threshold, nil
	case "handoff":
		return native.Handoff, nil
	}
	return 0, fmt.Errorf("lockd: unknown scheduler %q (want %s)", s, SchedulerNames)
}

// AppendRequest appends r's wire line — exactly json.Marshal(r)
// followed by '\n' — to dst and returns the extended buffer.
func AppendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"op":`...)
	dst = appendString(dst, r.Op)
	dst = appendUintField(dst, `,"session":`, r.Session)
	dst = appendStringField(dst, `,"lock":`, r.Lock)
	dst = appendStringField(dst, `,"client":`, r.Client)
	dst = appendIntField(dst, `,"lease_ms":`, r.LeaseMs)
	dst = appendIntField(dst, `,"wait_ms":`, r.WaitMs)
	dst = appendStringField(dst, `,"wait_hint":`, r.WaitHint)
	dst = appendIntField(dst, `,"prio":`, r.Prio)
	dst = appendIntField(dst, `,"attempt":`, int64(r.Attempt))
	dst = appendStringField(dst, `,"trace_id":`, r.TraceID)
	dst = appendStringField(dst, `,"parent_span":`, r.ParentSpan)
	dst = appendUintField(dst, `,"hlc":`, r.HLC)
	dst = appendUintField(dst, `,"token":`, r.Token)
	dst = appendStringField(dst, `,"policy":`, r.Policy)
	dst = appendStringField(dst, `,"sched":`, r.Sched)
	return append(dst, '}', '\n')
}

// AppendResponse appends r's wire line — exactly json.Marshal(r)
// followed by '\n' — to dst and returns the extended buffer.
func AppendResponse(dst []byte, r *Response) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	if r.OK {
		dst = append(dst, `,"ok":true`...)
	} else {
		dst = append(dst, `,"ok":false`...)
	}
	dst = appendStringField(dst, `,"code":`, r.Code)
	dst = appendStringField(dst, `,"err":`, r.Err)
	dst = appendUintField(dst, `,"session":`, r.Session)
	dst = appendIntField(dst, `,"lease_ms":`, r.LeaseMs)
	dst = appendBoolField(dst, `,"resumed":true`, r.Resumed)
	dst = appendUintField(dst, `,"token":`, r.Token)
	dst = appendBoolField(dst, `,"recovered":true`, r.Recovered)
	dst = appendIntField(dst, `,"retry_after_ms":`, r.RetryAfterMs)
	dst = appendBoolField(dst, `,"pending":true`, r.Pending)
	if r.Stat != nil {
		// A stat body is rare and unbounded: encoding/json writes it.
		b, _ := json.Marshal(r.Stat) // cannot fail: ints, strings and bools only
		dst = append(dst, `,"stat":`...)
		dst = append(dst, b...)
	}
	dst = appendStringField(dst, `,"server_span":`, r.ServerSpan)
	dst = appendUintField(dst, `,"hlc":`, r.HLC)
	dst = appendIntField(dst, `,"wall_ns":`, r.WallNs)
	dst = appendUintField(dst, `,"term":`, r.Term)
	dst = appendUintField(dst, `,"next_index":`, r.NextIndex)
	dst = appendStringField(dst, `,"leader_addr":`, r.LeaderAddr)
	return append(dst, '}', '\n')
}

// The append*Field helpers write one omitempty member: key is the
// member's `,"name":` prefix, and a zero value writes nothing.

func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendBoolField writes member (`,"name":true`) when v is set.
func appendBoolField(dst []byte, member string, v bool) []byte {
	if !v {
		return dst
	}
	return append(dst, member...)
}

// appendString writes s as a JSON string. Printable ASCII that
// encoding/json passes through unescaped is copied directly; anything
// else (quotes, backslashes, control bytes, HTML's <>&, non-ASCII and
// invalid UTF-8) is rare on this wire and left to json.Marshal, so the
// escaping rules live in one place.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plain[c] || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // cannot fail for a string
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ParseRequest decodes one wire line (a trailing newline is allowed)
// into r, overwriting it. It accepts and rejects exactly what
// json.Unmarshal does and yields the same value: the canonical form is
// walked in place, and any other line is handed whole to json.Unmarshal,
// whose error is returned unchanged.
func ParseRequest(line []byte, r *Request) error {
	*r = Request{}
	if parseRequest(line, r) {
		return nil
	}
	// json.Unmarshal needs a value of its own on the heap; only this
	// rare path pays for it, so the caller's r can stay on its stack.
	v := new(Request)
	err := json.Unmarshal(line, v)
	*r = *v
	return err
}

// ParseResponse is ParseRequest for a response line.
func ParseResponse(line []byte, r *Response) error {
	*r = Response{}
	if parseResponse(line, r) {
		return nil
	}
	// json.Unmarshal needs a value of its own on the heap; only this
	// rare path pays for it, so the caller's r can stay on its stack.
	v := new(Response)
	err := json.Unmarshal(line, v)
	*r = *v
	return err
}

func parseRequest(line []byte, r *Request) bool {
	s := scanner{b: line}
	if !s.lit('{') {
		return false
	}
	for {
		switch string(s.key()) {
		case "id":
			r.ID = s.uint()
		case "op":
			r.Op = s.op()
		case "session":
			r.Session = s.uint()
		case "lock":
			r.Lock = s.string()
		case "client":
			r.Client = s.string()
		case "lease_ms":
			r.LeaseMs = s.int64()
		case "wait_ms":
			r.WaitMs = s.int64()
		case "wait_hint":
			r.WaitHint = s.string()
		case "prio":
			r.Prio = s.int64()
		case "attempt":
			r.Attempt = s.int()
		case "trace_id":
			r.TraceID = s.string()
		case "parent_span":
			r.ParentSpan = s.string()
		case "hlc":
			r.HLC = s.uint()
		case "token":
			r.Token = s.uint()
		case "policy":
			r.Policy = s.string()
		case "sched":
			r.Sched = s.string()
		default:
			// Unknown, case-folded or malformed key: json.Unmarshal
			// decides (it ignores, folds or rejects).
			return false
		}
		if !s.next() {
			return s.done()
		}
	}
}

func parseResponse(line []byte, r *Response) bool {
	s := scanner{b: line}
	if !s.lit('{') {
		return false
	}
	for {
		switch string(s.key()) {
		case "id":
			r.ID = s.uint()
		case "ok":
			r.OK = s.bool()
		case "code":
			r.Code = s.code()
		case "err":
			r.Err = s.string()
		case "session":
			r.Session = s.uint()
		case "lease_ms":
			r.LeaseMs = s.int64()
		case "resumed":
			r.Resumed = s.bool()
		case "token":
			r.Token = s.uint()
		case "recovered":
			r.Recovered = s.bool()
		case "retry_after_ms":
			r.RetryAfterMs = s.int64()
		case "pending":
			r.Pending = s.bool()
		case "server_span":
			r.ServerSpan = s.string()
		case "hlc":
			r.HLC = s.uint()
		case "wall_ns":
			r.WallNs = s.int64()
		case "term":
			r.Term = s.uint()
		case "next_index":
			r.NextIndex = s.uint()
		case "leader_addr":
			r.LeaderAddr = s.string()
		default:
			// Unknown, case-folded or malformed keys, and the rare
			// stat body: json.Unmarshal decodes the line.
			return false
		}
		if !s.next() {
			return s.done()
		}
	}
}

// scanner walks one line in the canonical form encoding/json writes: no
// whitespace before the closing brace, keys and strings of printable
// ASCII without escapes, plain integers. Anything else sets bad, and
// the caller hands the line to json.Unmarshal instead.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes c if it is next.
func (s *scanner) lit(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes `"name":` and returns name; nil on anything else.
func (s *scanner) key() []byte {
	k := s.raw()
	if !s.lit(':') {
		s.bad = true
	}
	if s.bad {
		return nil
	}
	return k
}

// next consumes the ',' between members and reports whether another
// member follows; false leaves the scanner at the closing brace (or a
// syntax error done rejects).
func (s *scanner) next() bool {
	return !s.bad && s.lit(',')
}

// done reports whether the object closes cleanly and only JSON
// whitespace (the line's newline) follows.
func (s *scanner) done() bool {
	if s.bad || !s.lit('}') {
		return false
	}
	for _, c := range s.b[s.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// raw consumes a string of printable ASCII without escapes and returns
// its contents, aliasing the line.
func (s *scanner) raw() []byte {
	if !s.lit('"') {
		s.bad = true
		return nil
	}
	b, start, i := s.b, s.i, s.i
	for i < len(b) && plain[b[i]] {
		i++
	}
	s.i = i
	if !s.lit('"') {
		s.bad = true // an escape, a control or non-ASCII byte, or the end
		return nil
	}
	return s.b[start : s.i-1]
}

// plain marks the bytes a canonical string carries unescaped: printable
// ASCII except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (s *scanner) string() string {
	b := s.raw()
	if s.bad || len(b) == 0 {
		return ""
	}
	return string(b)
}

// op returns the operation name, as the package constant when it names
// one (no allocation).
func (s *scanner) op() string { return s.known(opNames) }

// code returns the response code, as the package constant when it names
// one (no allocation).
func (s *scanner) code() string { return s.known(codeNames) }

var (
	opNames   = []string{OpHello, OpAcquire, OpRelease, OpHeartbeat, OpReconfigure, OpStat, OpBye}
	codeNames = []string{CodeOverloaded, CodeTimeout, CodeExpired, CodeAlreadyHeld,
		CodeStaleToken, CodeBadRequest, CodeShutdown, CodeNotLeader, CodeUnavailable}
)

// known consumes a string and returns the entry of names it equals, or
// a copy of it when it names none.
func (s *scanner) known(names []string) string {
	b := s.raw()
	for _, n := range names {
		if string(b) == n {
			return n
		}
	}
	return string(b)
}

func (s *scanner) bool() bool {
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false
	}
	s.bad = true
	return false
}

// uint consumes a non-negative integer of at most 19 digits without
// leading zeros. A fraction or exponent is left for next/done to
// reject; a 20-digit value (it may overflow) is left to json.Unmarshal.
func (s *scanner) uint() uint64 {
	b, start, i := s.b, s.i, s.i // locals keep the loop in registers
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	s.i = i
	if n := i - start; n == 0 || n > 19 || (n > 1 && b[start] == '0') {
		s.bad = true
	}
	return v
}

func (s *scanner) int64() int64 {
	neg := s.lit('-')
	u := s.uint()
	switch {
	case !neg && u <= math.MaxInt64:
		return int64(u)
	case neg && u <= math.MaxInt64+1:
		return -int64(u-1) - 1
	}
	s.bad = true
	return 0
}

func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

// errLineTooLong marks a line exceeding ReadLine's bound; the line is
// fully consumed so the connection can keep serving.
var errLineTooLong = errors.New("lockd: request line too long")

// ReadLine reads one newline-terminated line of at most max bytes (max
// <= 0: unbounded). The result aliases br's buffer for lines that fit
// it, so it is valid only until the next read. An oversized line is
// drained to its newline and reported as errLineTooLong — a protocol
// error, not connection death (bufio.Scanner's ErrTooLong would end the
// read loop). Any other error is a real I/O condition.
func ReadLine(br *bufio.Reader, max int) ([]byte, error) { return readLine(br, max, nil) }

// readLine is ReadLine assembling a line longer than br's buffer in
// buf's storage, so a caller that passes back what the last long line
// returned (sliced to zero length) reuses it.
func readLine(br *bufio.Reader, max int, buf []byte) ([]byte, error) {
	line := buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		switch err {
		case nil:
			if len(line) == 0 {
				return frag, nil
			}
			line = append(line, frag...)
			if max > 0 && len(line) > max {
				return nil, errLineTooLong
			}
			return line, nil
		case bufio.ErrBufferFull:
			line = append(line, frag...)
			if max > 0 && len(line) > max {
				// Discard the remainder of the oversized line.
				for {
					_, err := br.ReadSlice('\n')
					if err == nil {
						return nil, errLineTooLong
					}
					if err != bufio.ErrBufferFull {
						return nil, err
					}
				}
			}
		default:
			return nil, err
		}
	}
}
