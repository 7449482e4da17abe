package lockd_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/lockd"
)

// appendPeer encodes r with ents as its entries.
func appendPeer(dst []byte, r *lockd.PeerRequest, ents []lockd.ReplEntry) []byte {
	return lockd.AppendPeerRequest(dst, r, len(ents), func(dst []byte, i int) ([]byte, uint64) {
		return append(dst, ents[i].Frames...), ents[i].Term
	})
}

// samplePeer is an append shaped like a leader's: two entries of record
// frames (any bytes do; the codec does not look inside them).
func samplePeer() (lockd.PeerRequest, []lockd.ReplEntry) {
	r := lockd.PeerRequest{
		ID: 40, Op: lockd.OpReplAppend, HLC: 115224746733544000, Term: 2, From: 3,
		LeaderAddr: "127.0.0.1:7703", PrevIndex: 40, PrevTerm: 2, Commit: 39,
	}
	ents := []lockd.ReplEntry{
		{Term: 2, Frames: bytes.Repeat([]byte{0x10, 0x0a, 0xff}, 72)},
		{Term: 2, Frames: bytes.Repeat([]byte{0x01, '\n'}, 108)},
	}
	return r, ents
}

// FuzzParsePeerRequest: arbitrary bytes never panic the decoder, and
// whatever it accepts aliases only the frame; every encoded request
// round-trips all its fields and entries; and every strict prefix of an
// encoded frame is rejected.
func FuzzParsePeerRequest(f *testing.F) {
	r, ents := samplePeer()
	f.Add(appendPeer(nil, &r, ents), uint8(0), uint64(40), uint64(115224746733544000), uint64(2), int64(3),
		"127.0.0.1:7703", uint64(40), uint64(2), uint64(0), uint64(0), uint64(39), uint64(0), false, []byte{0x10, 0x0a, 0xff, 1, 2})
	vote := lockd.PeerRequest{ID: 41, Op: lockd.OpReplVote, Term: 3, From: 1, LogLen: 42, LastTerm: 2}
	f.Add(appendPeer(nil, &vote, nil), uint8(1), uint64(41), uint64(0), uint64(3), int64(1),
		"", uint64(0), uint64(0), uint64(42), uint64(2), uint64(0), uint64(0), false, []byte{})
	f.Add([]byte{lockd.PeerFrameMagic, 3, 0, 0, 0, 3, 1, 0}, uint8(2), ^uint64(0), ^uint64(0), ^uint64(0), int64(-1<<63),
		"\xff\n", ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint64(1024), true, bytes.Repeat([]byte{7}, 300))
	f.Add([]byte{lockd.PeerFrameMagic, 0xff, 0xff, 0xff, 0xff}, uint8(0), uint64(0), uint64(0), uint64(0), int64(0),
		"", uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), false, []byte(nil))
	f.Add([]byte(`{"id":1,"op":"hello"}`), uint8(0), uint64(1), uint64(0), uint64(0), int64(0),
		"", uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), false, []byte(nil))
	ops := []string{lockd.OpReplAppend, lockd.OpReplVote, lockd.OpReplSnapshot}
	f.Fuzz(func(t *testing.T, data []byte, op uint8, id, hlc, term uint64, from int64, addr string,
		prevIndex, prevTerm, logLen, lastTerm, commit, offset uint64, done bool, frames []byte) {
		data = data[:len(data):len(data)] // a read past the end panics
		var got lockd.PeerRequest
		if lockd.ParsePeerRequest(data, &got) == nil {
			for _, e := range got.Entries {
				if len(e.Frames) > 0 && !aliases(data, e.Frames) {
					t.Fatalf("entry frames %q do not alias the frame", e.Frames)
				}
			}
		}

		want := lockd.PeerRequest{
			ID: id, Op: ops[int(op)%len(ops)], HLC: hlc, Term: term, From: int(from), LeaderAddr: addr,
			PrevIndex: prevIndex, PrevTerm: prevTerm, LogLen: logLen, LastTerm: lastTerm,
			Commit: commit, Offset: offset, Done: done,
		}
		// Cut frames into entries of varying length, some empty.
		var ents []lockd.ReplEntry
		for i, rest := 0, frames; len(rest) > 0 || i == 0; i++ {
			k := min(len(rest), i*37%101)
			ents = append(ents, lockd.ReplEntry{Term: term + uint64(i), Frames: rest[:k]})
			rest = rest[k:]
		}
		enc := appendPeer([]byte("prefix"), &want, ents)
		if string(enc[:6]) != "prefix" {
			t.Fatal("encoding overwrote the buffer's prefix")
		}
		enc = enc[6:]
		// Decode into a request that already holds storage and another
		// address, as a connection's reused request does.
		back := lockd.PeerRequest{LeaderAddr: "stale", Entries: make([]lockd.ReplEntry, 3)}
		if err := lockd.ParsePeerRequest(enc, &back); err != nil {
			t.Fatalf("encoded request rejected: %v", err)
		}
		gotEnts := back.Entries
		back.Entries = nil
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("round trip\n got %+v\nwant %+v", back, want)
		}
		if len(gotEnts) != len(ents) {
			t.Fatalf("%d entries back, want %d", len(gotEnts), len(ents))
		}
		for i := range ents {
			if gotEnts[i].Term != ents[i].Term || !bytes.Equal(gotEnts[i].Frames, ents[i].Frames) {
				t.Fatalf("entry %d: got %+v, want %+v", i, gotEnts[i], ents[i])
			}
		}
		for k := 0; k < len(enc); k++ {
			if lockd.ParsePeerRequest(enc[:k:k], &back) == nil {
				t.Fatalf("frame truncated to %d of %d bytes accepted", k, len(enc))
			}
		}
	})
}

// aliases reports whether sub lies inside buf's memory.
func aliases(buf, sub []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
	return p >= start && p+uintptr(len(sub)) <= start+uintptr(len(buf))
}

// TestParsePeerRequestReusesStorage: decoding a peer frame into the
// request a connection reuses allocates nothing: the entries' frames
// alias the frame, the entry slice is reused, and the leader's address
// is kept while it does not change.
func TestParsePeerRequestReusesStorage(t *testing.T) {
	r, ents := samplePeer()
	frame := appendPeer(nil, &r, ents)
	var req lockd.PeerRequest
	if err := lockd.ParsePeerRequest(frame, &req); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := lockd.ParsePeerRequest(frame, &req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding into a reused request allocates %v times", allocs)
	}
	if len(req.Entries) != 2 || !aliases(frame, req.Entries[1].Frames) || req.LeaderAddr != r.LeaderAddr {
		t.Fatalf("decoded %+v", req)
	}
	buf := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(100, func() { buf = appendPeer(buf[:0], &r, ents) }); allocs != 0 {
		t.Fatalf("encoding into a reused buffer allocates %v times", allocs)
	}
}

// TestRequestFitsSizeClass pins lockd.Request at 192 bytes, a malloc
// size class: serveConn copies each acquire's Request to the heap for
// the goroutine that serves it, so every byte past a class boundary is
// paid on every acquire. Peer fields belong in PeerRequest.
func TestRequestFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(lockd.Request{}); size > 192 {
		t.Fatalf("lockd.Request is %d bytes, want <= 192", size)
	}
}

// peerRecorder is a replica that is always the leader and answers every
// peer request OK, echoing its term, after copying it out.
type peerRecorder struct {
	mu   sync.Mutex
	seen []lockd.PeerRequest
}

func (r *peerRecorder) Gate() lockd.ReplGate         { return lockd.ReplGate{Leader: true, Term: 1} }
func (r *peerRecorder) Propose(lockd.Mutation) error { return nil }

func (r *peerRecorder) HandleRepl(req *lockd.PeerRequest) lockd.Response {
	cp := *req
	cp.Entries = nil
	for _, e := range req.Entries {
		cp.Entries = append(cp.Entries, lockd.ReplEntry{Term: e.Term, Frames: bytes.Clone(e.Frames)})
	}
	r.mu.Lock()
	r.seen = append(r.seen, cp)
	r.mu.Unlock()
	return lockd.Response{ID: req.ID, OK: true, Term: req.Term, NextIndex: req.PrevIndex + uint64(len(req.Entries))}
}

// TestServeConnPeerFrames: one connection interleaves client JSON lines
// and a binary peer frame, and each is served in order; a JSON line
// naming a peer op is a bad request; a malformed or oversized peer
// frame ends only its own connection.
func TestServeConnPeerFrames(t *testing.T) {
	rep := &peerRecorder{}
	srv := newServer(t, lockd.Config{Replica: rep})
	rc := dialRaw(t, srv)

	r, ents := samplePeer()
	var wire []byte
	wire = append(wire, `{"id":1,"op":"hello","client":"mixed"}`+"\n"...)
	wire = appendPeer(wire, &r, ents)
	wire = append(wire, `{"id":2,"op":"stat","session":1}`+"\n"...)
	rc.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := rc.conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	if resp := rc.recv(); resp.ID != 1 || !resp.OK || resp.Session != 1 {
		t.Fatalf("first reply %+v, want the hello's opening session 1", resp)
	}
	if resp := rc.recv(); resp.ID != r.ID || !resp.OK || resp.Term != r.Term || resp.NextIndex != r.PrevIndex+2 {
		t.Fatalf("second reply %+v, want the peer append's", resp)
	}
	if resp := rc.recv(); resp.ID != 2 || !resp.OK || resp.Stat == nil {
		t.Fatalf("third reply %+v, want the stat's", resp)
	}
	rep.mu.Lock()
	seen := rep.seen
	rep.mu.Unlock()
	if len(seen) != 1 || seen[0].LeaderAddr != r.LeaderAddr || len(seen[0].Entries) != 2 ||
		!bytes.Equal(seen[0].Entries[0].Frames, ents[0].Frames) || !bytes.Equal(seen[0].Entries[1].Frames, ents[1].Frames) {
		t.Fatalf("replica saw %+v", seen)
	}

	// Peer requests are binary only: the JSON form is an unknown op.
	rc.sendLine(`{"id":3,"op":"repl-append","term":2,"from":3}`)
	if resp := rc.recv(); resp.ID != 3 || resp.Code != lockd.CodeBadRequest {
		t.Fatalf("JSON repl-append reply %+v, want code %q", resp, lockd.CodeBadRequest)
	}
	rc.hello(4)

	good := dialRaw(t, srv)
	good.hello(1)
	bad := [][]byte{
		// A body that ends inside its first field.
		{lockd.PeerFrameMagic, 2, 0, 0, 0, 1, 0},
		// An op no peer speaks.
		{lockd.PeerFrameMagic, 2, 0, 0, 0, 9, 0},
		// A header announcing more than the 1 MiB bound.
		binary.LittleEndian.AppendUint32([]byte{lockd.PeerFrameMagic}, 1<<20),
	}
	for i, frame := range bad {
		c := dialRaw(t, srv)
		c.conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if b, err := c.br.ReadByte(); !errors.Is(err, io.EOF) && !strings.Contains(errString(err), "reset") {
			t.Fatalf("bad frame %d: read %q, %v; want the connection closed", i, b, err)
		}
		good.hello(uint64(i + 2))
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
