package replica

import (
	"bufio"
	"net"
	"sync"
	"time"

	"repro/internal/lockd"
)

// Peer identifies one replica of the cluster: its replica id and the
// client-facing address its lockd listens on (replication rides the
// same wire as client traffic).
type Peer struct {
	ID   int
	Addr string
}

// peerConn is a persistent, mutex-serialized RPC client to one peer.
// Any transport error tears the connection down; the next call redials,
// so a peer that was partitioned or restarted is picked back up without
// bookkeeping. Calls to the same peer serialize (replication to one
// learner is ordered anyway); calls to different peers run in parallel.
type peerConn struct {
	id   int
	addr string
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte // reused request frame buffer
	nextID uint64
}

// call sends one request carrying ents, their record frames stamped at
// atNs, and waits for its response, bounded by timeout end to end (dial
// included). The frames are encoded straight into the link's reused
// write buffer.
func (p *peerConn) call(req *lockd.PeerRequest, ents []logEntry, atNs int64, timeout time.Duration) (lockd.Response, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	deadline := time.Now().Add(timeout)
	if p.conn == nil {
		c, err := p.dial(p.addr, timeout)
		if err != nil {
			return lockd.Response{}, err
		}
		p.conn = c
		p.br = bufio.NewReader(c)
	}
	p.nextID++
	req.ID = p.nextID
	p.wbuf = lockd.AppendPeerRequest(p.wbuf[:0], req, len(ents), func(dst []byte, i int) ([]byte, uint64) {
		return appendMutation(dst, ents[i].m, atNs), ents[i].term
	})
	p.conn.SetDeadline(deadline) //nolint:errcheck // best-effort bound
	if _, err := p.conn.Write(p.wbuf); err != nil {
		p.resetLocked()
		return lockd.Response{}, err
	}
	for {
		line, err := lockd.ReadLine(p.br, 0)
		if err != nil {
			p.resetLocked()
			return lockd.Response{}, err
		}
		var resp lockd.Response
		if err := lockd.ParseResponse(line, &resp); err != nil {
			p.resetLocked()
			return lockd.Response{}, err
		}
		if resp.ID == req.ID {
			p.conn.SetDeadline(time.Time{}) //nolint:errcheck
			return resp, nil
		}
		// A response to an earlier, timed-out call: drain and keep
		// reading for ours.
	}
}

func (p *peerConn) resetLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		p.br = nil
	}
}

func (p *peerConn) close() {
	p.mu.Lock()
	p.resetLocked()
	p.mu.Unlock()
}
