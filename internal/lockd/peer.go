package lockd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// This file is the peer half of the wire protocol: the binary request
// frame replicas send each other (repl-append, repl-vote,
// repl-snapshot). Peer requests share the socket with client JSON lines
// and are answered with ordinary JSON Response lines; serveConn tells
// the two apart by the first byte, which for a peer frame is
// PeerFrameMagic — a byte no JSON text (and no UTF-8 text) contains.
//
// A frame is the magic byte, the body length as a little-endian uint32,
// and the body:
//
//	op         1 byte: 1 repl-append, 2 repl-vote, 3 repl-snapshot
//	flags      1 byte: bit 0 is Done; the other bits must be clear
//	id, hlc, term                                        uvarint each
//	from                                                 varint
//	prev_index, prev_term, log_len, last_term, commit, offset   uvarint each
//	leader_addr                                          uvarint length, bytes
//	entries, to the end of the body, each:
//	  frames      uint32 length, then the entry's journal record frames
//	  term        uvarint (after the frames, which a sender writes in
//	              place first and then measures)
//
// An entry's frames are raw journal record frames
// (journal.AppendRecordFrames), CRC and all: the codec copies them
// through untouched and the replica layer decodes them. A frame is at
// most maxLineBytes long, the bound client lines have.

// PeerFrameMagic opens every peer request frame.
const PeerFrameMagic = 0xff

// peerHeaderBytes is the magic byte plus the body length.
const peerHeaderBytes = 5

// peerOps maps a frame's op byte to the operation name.
var peerOps = [...]string{1: OpReplAppend, 2: OpReplVote, 3: OpReplSnapshot}

// PeerRequest is one replica->replica message. The leader's address is
// the NotLeader hint learners hand out. Appends carry the log position
// their entries extend (PrevIndex = leader log length before them,
// PrevTerm = term of the entry just before), the entries, and the
// leader's commit index. Votes carry the candidate's log credentials
// (LogLen, LastTerm) for the election-safety check. Snapshot pieces
// carry Offset and Done (see OpReplSnapshot).
type PeerRequest struct {
	ID         uint64
	Op         string // OpReplAppend, OpReplVote or OpReplSnapshot
	HLC        uint64 // the sender's hybrid logical clock at send time
	Term       uint64 // the sender's term
	From       int    // the sender's replica id
	LeaderAddr string
	PrevIndex  uint64
	PrevTerm   uint64
	LogLen     uint64
	LastTerm   uint64
	Commit     uint64
	Offset     uint64
	Done       bool
	// Entries is what ParsePeerRequest decoded: each entry's Frames
	// alias the frame it parsed, so they are valid only until that
	// storage is reused. AppendPeerRequest does not read it.
	Entries []ReplEntry
}

// ReplEntry is one replication-log entry as a peer frame carries it:
// the term it was appended under and the mutation as a self-contained
// run of journal record frames (journal.AppendRecordFrames).
type ReplEntry struct {
	Term   uint64
	Frames []byte
}

// AppendPeerRequest appends r's request frame to dst and returns the
// extended buffer. The frame carries n entries: entry(dst, i) appends
// the record frames of entry i to dst and returns the extended buffer
// and the entry's term, so a sender encodes its entries in place.
func AppendPeerRequest(dst []byte, r *PeerRequest, n int, entry func(dst []byte, i int) ([]byte, uint64)) []byte {
	start := len(dst)
	dst = append(dst, PeerFrameMagic, 0, 0, 0, 0, peerOp(r.Op), 0)
	if r.Done {
		dst[len(dst)-1] = 1
	}
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, r.HLC)
	dst = binary.AppendUvarint(dst, r.Term)
	dst = binary.AppendVarint(dst, int64(r.From))
	for _, v := range [...]uint64{r.PrevIndex, r.PrevTerm, r.LogLen, r.LastTerm, r.Commit, r.Offset} {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.LeaderAddr)))
	dst = append(dst, r.LeaderAddr...)
	for i := 0; i < n; i++ {
		head := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		var term uint64
		dst, term = entry(dst, i)
		binary.LittleEndian.PutUint32(dst[head:], uint32(len(dst)-head-4))
		dst = binary.AppendUvarint(dst, term)
	}
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-peerHeaderBytes))
	return dst
}

func peerOp(op string) byte {
	for i, name := range peerOps {
		if i > 0 && name == op {
			return byte(i)
		}
	}
	return 0
}

// ParsePeerRequest decodes one whole peer frame into r, overwriting it.
// r's Entries storage is reused, and its LeaderAddr kept when the frame
// names the same address, so decoding into the request a connection
// reuses allocates nothing once it has seen its longest batch. Entries
// alias frame.
func ParsePeerRequest(frame []byte, r *PeerRequest) error {
	if len(frame) < peerHeaderBytes || frame[0] != PeerFrameMagic {
		return errNotPeerFrame
	}
	if n := binary.LittleEndian.Uint32(frame[1:]); uint64(n) != uint64(len(frame)-peerHeaderBytes) {
		return fmt.Errorf("lockd: peer frame body is %d bytes, header says %d", len(frame)-peerHeaderBytes, n)
	}
	d := peerDecoder{b: frame[peerHeaderBytes:]}
	op, flags := d.byte(), d.byte()
	*r = PeerRequest{LeaderAddr: r.LeaderAddr, Entries: r.Entries[:0]}
	if int(op) < len(peerOps) {
		r.Op = peerOps[op]
	}
	if r.Op == "" || flags&^1 != 0 {
		return fmt.Errorf("lockd: peer frame op %d flags %#x", op, flags)
	}
	r.Done = flags&1 != 0
	r.ID, r.HLC, r.Term = d.uvarint(), d.uvarint(), d.uvarint()
	from := d.varint()
	r.From = int(from)
	if int64(r.From) != from {
		d.bad = true
	}
	r.PrevIndex, r.PrevTerm, r.LogLen = d.uvarint(), d.uvarint(), d.uvarint()
	r.LastTerm, r.Commit, r.Offset = d.uvarint(), d.uvarint(), d.uvarint()
	if addr := d.bytes(d.uvarint()); string(addr) != r.LeaderAddr {
		r.LeaderAddr = string(addr)
	}
	for !d.bad && len(d.b) > 0 {
		var n uint64
		if fr := d.bytes(4); len(fr) == 4 {
			n = uint64(binary.LittleEndian.Uint32(fr))
		}
		frames := d.bytes(n)
		r.Entries = append(r.Entries, ReplEntry{Term: d.uvarint(), Frames: frames})
	}
	if d.bad {
		return errBadPeerFrame
	}
	return nil
}

var (
	errNotPeerFrame = errors.New("lockd: not a peer frame")
	errBadPeerFrame = errors.New("lockd: truncated or malformed peer frame")
)

// peerDecoder walks a peer frame's body; any short or malformed field
// sets bad, and every later read returns zero.
type peerDecoder struct {
	b   []byte
	bad bool
}

func (d *peerDecoder) byte() byte {
	if d.bad || len(d.b) == 0 {
		d.bad = true
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *peerDecoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[k:]
	return v
}

func (d *peerDecoder) varint() int64 {
	if d.bad {
		return 0
	}
	v, k := binary.Varint(d.b)
	if k <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[k:]
	return v
}

// bytes consumes the next n bytes, aliasing the frame.
func (d *peerDecoder) bytes(n uint64) []byte {
	if d.bad || n > uint64(len(d.b)) {
		d.bad = true
		return nil
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

// errFrameTooLong marks a peer frame whose header announces more than
// readPeerFrame's bound. No replica sends one, so the length is not
// trusted to skip it by: the connection ends.
var errFrameTooLong = errors.New("lockd: peer frame too long")

// readPeerFrame reads one whole peer frame of at most max bytes into
// buf's storage (grown as needed) and returns it; a connection that
// passes back what the last call returned reuses it.
func readPeerFrame(br *bufio.Reader, max int, buf []byte) ([]byte, error) {
	head, err := br.Peek(peerHeaderBytes)
	if err != nil {
		return buf[:0], err
	}
	n := peerHeaderBytes + int(binary.LittleEndian.Uint32(head[1:]))
	if n > max {
		return buf[:0], errFrameTooLong
	}
	buf = slices.Grow(buf[:0], n)[:n]
	_, err = io.ReadFull(br, buf)
	return buf, err
}
