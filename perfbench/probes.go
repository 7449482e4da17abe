package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockd"
	"repro/internal/replica"
)

// netProbe instruments the network path from outside its packages,
// through the hooks they already expose: client connections
// (lockclient.Options.Dial), server connections (lockd.Config.WrapConn),
// peer links (replica.Config.Dial), the replica's Propose (a
// lockd.Replica wrapper around the real node) and the HLC wall source.
type netProbe struct {
	measuring atomic.Bool

	wireBytes  atomic.Int64 // client<->server bytes, both directions
	wireWrites atomic.Int64 // client<->server writes, both directions
	peerMsgs   atomic.Int64 // peer requests sent plus responses received
	peerBytes  atomic.Int64
	wallReads  atomic.Int64

	// slots maps a client connection's local address (the server side's
	// remote address) to that caller's residence slot.
	slots sync.Map

	mu        sync.Mutex
	residence *reservoir // server residence of acquire requests, ns
	propose   *reservoir // replica.Propose duration, ns
	reqLines  [][]byte   // captured acquire/release request lines
	respLines [][]byte   // and their responses, for the codec micro-run
}

func newNetProbe() *netProbe {
	return &netProbe{
		residence: newReservoir(reservoirCap, 31),
		propose:   newReservoir(reservoirCap, 37),
	}
}

// probeCounts is a snapshot of a netProbe's counters.
type probeCounts struct {
	wireBytes, wireWrites, peerMsgs, peerBytes, wallReads int64
}

func (p *netProbe) counts() probeCounts {
	return probeCounts{p.wireBytes.Load(), p.wireWrites.Load(), p.peerMsgs.Load(), p.peerBytes.Load(), p.wallReads.Load()}
}

// codecCapture bounds the lines kept for the codec micro-run.
const codecCapture = 256

// wall is the counting wall source every traced HLC clock reads.
func (p *netProbe) wall() int64 {
	p.wallReads.Add(1)
	return time.Now().UnixNano()
}

// residenceSlot carries the server residence of a caller's latest
// acquire to that caller, so it can subtract it from its own round trip.
type residenceSlot struct {
	acquires atomic.Int64 // acquire responses written on this connection
	last     atomic.Int64 // the latest one's residence, ns
}

// clientDial returns a lockclient dialer that counts wire traffic and
// registers the connection's residence slot in *slot.
func (p *netProbe) clientDial(slot *atomic.Pointer[residenceSlot]) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		s := &residenceSlot{}
		p.slots.Store(c.LocalAddr().String(), s)
		slot.Store(s)
		return &clientConn{Conn: c, p: p}, nil
	}
}

type clientConn struct {
	net.Conn
	p *netProbe
}

func (c *clientConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.wireBytes.Add(int64(n))
	return n, err
}

func (c *clientConn) Write(b []byte) (int, error) {
	c.p.wireWrites.Add(1)
	n, err := c.Conn.Write(b)
	c.p.wireBytes.Add(int64(n))
	return n, err
}

// peerDial wraps replica peer links, counting messages and bytes: each
// write is one request, each newline read ends one response.
func (p *netProbe) peerDial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &peerConn{Conn: c, p: p}, nil
}

type peerConn struct {
	net.Conn
	p *netProbe
}

func (c *peerConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.peerBytes.Add(int64(n))
	c.p.peerMsgs.Add(int64(bytes.Count(b[:n], []byte{'\n'})))
	return n, err
}

func (c *peerConn) Write(b []byte) (int, error) {
	c.p.peerMsgs.Add(1)
	n, err := c.Conn.Write(b)
	c.p.peerBytes.Add(int64(n))
	return n, err
}

// wrapServerConn is the lockd.Config.WrapConn hook: it stamps the read
// that delivered each acquire or release request and the write that
// answered it. Each session has one operation in flight, so the gap is
// exactly the server's residence.
func (p *netProbe) wrapServerConn(c net.Conn) net.Conn {
	return &serverConn{Conn: c, p: p, pending: make(map[uint64]pendingReq)}
}

type pendingReq struct {
	at      time.Time
	acquire bool
	line    []byte // captured request line, if capturing
}

type serverConn struct {
	net.Conn
	p *netProbe

	// Read side (the server's single read loop).
	head   []byte       // the start of the line being read
	long   bool         // the line outgrew head
	client atomic.Int32 // 0 unknown, 1 client connection, 2 peer link
	slot   atomic.Pointer[residenceSlot]

	mu      sync.Mutex
	pending map[uint64]pendingReq
}

// headMax bounds how much of a request line the probe keeps: enough for
// the id and op at its start and for a whole acquire or release line.
const headMax = 512

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		at := time.Now()
		buf := b[:n]
		for len(buf) > 0 {
			i := bytes.IndexByte(buf, '\n')
			frag := buf
			if i >= 0 {
				frag = buf[:i]
			}
			if room := headMax - len(c.head); room > 0 {
				if len(frag) > room {
					c.head = append(c.head, frag[:room]...)
					c.long = true
				} else {
					c.head = append(c.head, frag...)
				}
			} else if len(frag) > 0 {
				c.long = true
			}
			if i < 0 {
				break
			}
			c.requestLine(at)
			c.head, c.long = c.head[:0], false
			buf = buf[i+1:]
		}
	}
	return n, err
}

// requestLine handles one complete request line in c.head.
func (c *serverConn) requestLine(at time.Time) {
	id, op, ok := lineIDOp(c.head)
	if !ok {
		return
	}
	if c.client.Load() == 0 {
		kind := int32(1)
		if op == lockd.OpReplAppend || op == lockd.OpReplVote {
			kind = 2
		} else if v, found := c.p.slots.Load(c.RemoteAddr().String()); found {
			c.slot.Store(v.(*residenceSlot))
		}
		c.client.Store(kind)
	}
	if op != lockd.OpAcquire && op != lockd.OpRelease {
		return
	}
	pr := pendingReq{at: at, acquire: op == lockd.OpAcquire}
	if c.p.measuring.Load() && !c.long {
		pr.line = append([]byte(nil), c.head...)
	}
	c.mu.Lock()
	c.pending[id] = pr
	c.mu.Unlock()
}

func (c *serverConn) Write(b []byte) (int, error) {
	at := time.Now()
	if c.client.Load() == 1 {
		c.p.wireWrites.Add(1)
		if id, ok := lineID(b); ok {
			c.mu.Lock()
			pr, found := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if found {
				c.answered(pr, at, b)
			}
		}
	}
	return c.Conn.Write(b)
}

// answered records one request's residence, published before the
// response leaves so the caller can read it once the response arrives.
func (c *serverConn) answered(pr pendingReq, at time.Time, resp []byte) {
	res := int64(at.Sub(pr.at))
	if pr.acquire {
		if s := c.slot.Load(); s != nil {
			s.last.Store(res)
			s.acquires.Add(1)
		}
	}
	if !c.p.measuring.Load() {
		return
	}
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	if pr.acquire {
		c.p.residence.add(res)
	}
	if pr.line != nil && len(c.p.reqLines) < codecCapture {
		c.p.reqLines = append(c.p.reqLines, pr.line)
		c.p.respLines = append(c.p.respLines, bytes.TrimRight(append([]byte(nil), resp...), "\n"))
	}
}

// lineIDOp reads the id and op that open every encoded lockd.Request
// ({"id":N,"op":"..."}; encoding/json writes fields in declaration
// order).
func lineIDOp(line []byte) (uint64, string, bool) {
	id, ok := lineID(line)
	if !ok {
		return 0, "", false
	}
	const key = `"op":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, "", false
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return 0, "", false
	}
	return id, string(rest[:j]), true
}

// lineID reads the id that opens an encoded lockd.Request or Response.
func lineID(line []byte) (uint64, bool) {
	const key = `{"id":`
	if !bytes.HasPrefix(line, []byte(key)) {
		return 0, false
	}
	rest := line[len(key):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	id, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	return id, err == nil
}

// timedReplica is the lockd.Replica the traced cluster hands its
// servers: the real node, with Propose timed.
type timedReplica struct {
	*replica.Node
	p *netProbe
}

func (r timedReplica) Propose(m lockd.Mutation) error {
	t := time.Now()
	err := r.Node.Propose(m)
	if r.p.measuring.Load() {
		d := int64(time.Since(t))
		r.p.mu.Lock()
		r.p.propose.add(d)
		r.p.mu.Unlock()
	}
	return err
}

// codecNsPerMsg decodes and re-encodes the captured request and
// response lines through lockd.Request and lockd.Response, alone on one
// goroutine, for at least d, and returns the mean cost of one message.
func (p *netProbe) codecNsPerMsg(d time.Duration) float64 {
	p.mu.Lock()
	reqs, resps := p.reqLines, p.respLines
	p.mu.Unlock()
	if len(reqs) == 0 {
		return 0
	}
	var msgs int64
	start := time.Now()
	for time.Since(start) < d {
		for i := range reqs {
			var rq lockd.Request
			var rs lockd.Response
			if json.Unmarshal(reqs[i], &rq) != nil || json.Unmarshal(resps[i], &rs) != nil {
				return 0
			}
			if _, err := json.Marshal(rq); err != nil {
				return 0
			}
			if _, err := json.Marshal(rs); err != nil {
				return 0
			}
			msgs += 2
		}
	}
	return float64(time.Since(start)) / float64(msgs)
}
