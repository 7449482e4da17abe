// Package journal is the always-on black-box flight recorder for lock
// lifecycle events. Producers append fixed-size binary records into
// per-shard lock-free rings; a background writer drains the rings into
// size-bounded, CRC-checked segment files with retention. The format is
// deliberately dumb — fixed-size frames, little-endian, CRC-32 per
// frame — so a journal survives its writer: any torn tail left by a
// crash is rejected frame-by-frame on read, and everything before it
// replays.
//
// Lock and agent names are interned to uint32 ids; the writer re-emits
// the name table at the head of every segment, so each segment file is
// self-contained and old segments can be deleted without orphaning ids.
//
// Two segment versions exist. v1 ("LKJRNL1\n", 64-byte frames) predates
// hybrid logical clocks; v2 ("LKJRNL2\n", 72-byte frames) adds the HLC
// timestamp to every event frame. The writer emits v2; the reader
// handles both, decoding v1 events with HLC 0 so merge falls back to
// their wall clocks.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/hlc"
)

// Kind classifies one journal record.
type Kind uint8

const (
	KindInvalid Kind = iota
	// KindWait marks the start of a contended acquire: the actor queued.
	KindWait
	// KindAcquire is a grant. Dur carries the wait endured (0 if the
	// fast path hit), Token the fencing token for lease-based grants.
	KindAcquire
	// KindRelease is a voluntary release. Dur carries the hold tenure.
	KindRelease
	// KindTimeout is an acquire that gave up on deadline.
	KindTimeout
	// KindAbort is an acquire cancelled or shed before grant.
	KindAbort
	// KindWatchdog is a hold-deadline watchdog trip. Dur carries the
	// tenure at trip time.
	KindWatchdog
	// KindOwnerDead is a forced release of a dead owner (robust-mutex
	// recovery or lease expiry). Dur carries the ended tenure, Token the
	// fenced-off token.
	KindOwnerDead
	// KindReconfig records a policy or scheduler reconfiguration.
	KindReconfig
	// KindDrops is a synthetic record the writer emits when a shard ring
	// overflowed: Dur holds the number of events lost since the last
	// drops record. Readers see exactly where the history has holes.
	KindDrops
	// KindSessionOpen records a lockd session establishment: Tag carries
	// the session id, Dur the granted lease. Replicated so a promoted
	// learner can resume live sessions.
	KindSessionOpen
	// KindSessionEnd records a lockd session ending (graceful bye or
	// lease expiry): Tag carries the session id.
	KindSessionEnd

	kindMax
)

var kindNames = [...]string{
	KindInvalid:     "invalid",
	KindWait:        "wait",
	KindAcquire:     "acquire",
	KindRelease:     "release",
	KindTimeout:     "timeout",
	KindAbort:       "abort",
	KindWatchdog:    "watchdog",
	KindOwnerDead:   "owner-dead",
	KindReconfig:    "reconfig",
	KindDrops:       "drops",
	KindSessionOpen: "session-open",
	KindSessionEnd:  "session-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString inverts Kind.String (for CLI filters). Returns
// KindInvalid when the name is unknown.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return KindInvalid
}

// Origin says which layer of the stack emitted a record.
type Origin uint8

const (
	OriginUnknown Origin = iota
	// OriginNative: a native.Mutex event sink.
	OriginNative
	// OriginSim: a simulated core.Lock (At is sim-time
	// nanoseconds, not wall clock).
	OriginSim
	// OriginLockd: the lock service's server-side view of a lease.
	OriginLockd
	// OriginClient: a lockclient's client-side view of the same lease.
	OriginClient
)

var originNames = [...]string{
	OriginUnknown: "unknown",
	OriginNative:  "native",
	OriginSim:     "sim",
	OriginLockd:   "lockd",
	OriginClient:  "client",
}

func (o Origin) String() string {
	if int(o) < len(originNames) {
		return originNames[o]
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// Record is one journal event, the decoded form of an event frame.
// Lock and Agent are interned ids; the reader resolves them back to
// names via the per-segment name table.
type Record struct {
	AtNs   int64    // event instant: wall ns (sim ns for OriginSim)
	HLC    hlc.Time // hybrid logical timestamp; 0 for pre-HLC and sim records
	Seq    uint64   // per-shard append position: total order within a lock
	DurNs  int64    // kind-dependent duration: waited, held, or drop count
	Token  uint64   // fencing token (lease grants), 0 otherwise
	Tag    uint64   // actor tag: handoff tag, session id, or 0
	Trace  uint64   // causal trace id shared across processes, 0 if untraced
	Lock   uint32   // interned lock name
	Agent  uint32   // interned agent/client name, 0 if anonymous
	Kind   Kind
	Origin Origin
}

// HLCKey is the merge-ordering key: the record's HLC when stamped,
// else the raw wall instant. The two live on the same scale — a packed
// HLC is wall nanoseconds with the low 16 bits repurposed — so pre-HLC
// records interleave with stamped ones at wall-clock fidelity while
// keeping their exact order among themselves.
func (r Record) HLCKey() hlc.Time {
	if r.HLC != 0 {
		return r.HLC
	}
	return hlc.Time(r.AtNs)
}

// At returns the record instant as wall time. Meaningless for
// OriginSim records, where AtNs counts simulated nanoseconds from 0.
func (r Record) At() time.Time { return time.Unix(0, r.AtNs) }

// Frame layout. Every frame — event or name — in one segment is
// exactly the segment version's frame size, so a reader can walk it by
// fixed stride and a torn trailing write can never desynchronize the
// stream. The CRC always occupies the last four bytes of the frame.
const (
	// FrameSize is the on-disk size of every frame the writer emits
	// (segment version 2).
	FrameSize = 72
	// FrameSizeV1 is the frame size of version-1 segments, still
	// accepted on read.
	FrameSizeV1 = 64
	// frameCRCOff is where the little-endian CRC-32 (IEEE) of the
	// preceding bytes lives in a v2 frame.
	frameCRCOff = FrameSize - 4

	frameEvent     = 0x01
	frameLockName  = 0x10
	frameAgentName = 0x11

	// MaxNameLen is the longest name a v2 name frame can carry; longer
	// names are truncated at intern time.
	MaxNameLen = FrameSize - 4 /*crc*/ - 6 /*type+len+id*/
)

// SegmentHeader layout: magic, creation instant, segment index.
const (
	segHeaderSize = 32
	segMagic      = "LKJRNL2\n"
	segMagicV1    = "LKJRNL1\n"
)

// encodeEvent writes r as a v2 event frame into buf[0:FrameSize].
func encodeEvent(buf []byte, r *Record) {
	buf[0] = frameEvent
	buf[1] = byte(r.Kind)
	buf[2] = byte(r.Origin)
	buf[3] = 0
	binary.LittleEndian.PutUint32(buf[4:], r.Lock)
	binary.LittleEndian.PutUint32(buf[8:], r.Agent)
	binary.LittleEndian.PutUint64(buf[12:], uint64(r.AtNs))
	binary.LittleEndian.PutUint64(buf[20:], r.Seq)
	binary.LittleEndian.PutUint64(buf[28:], uint64(r.DurNs))
	binary.LittleEndian.PutUint64(buf[36:], r.Token)
	binary.LittleEndian.PutUint64(buf[44:], r.Tag)
	binary.LittleEndian.PutUint64(buf[52:], r.Trace)
	binary.LittleEndian.PutUint64(buf[60:], uint64(r.HLC))
	binary.LittleEndian.PutUint32(buf[frameCRCOff:], crc32.ChecksumIEEE(buf[:frameCRCOff]))
}

// decodeEvent parses an event frame (CRC already checked). The frame
// version is inferred from the slice length: v1 frames carry no HLC
// and decode with HLC 0, leaving merge to their wall clocks.
func decodeEvent(buf []byte) Record {
	r := Record{
		Kind:   Kind(buf[1]),
		Origin: Origin(buf[2]),
		Lock:   binary.LittleEndian.Uint32(buf[4:]),
		Agent:  binary.LittleEndian.Uint32(buf[8:]),
		AtNs:   int64(binary.LittleEndian.Uint64(buf[12:])),
		Seq:    binary.LittleEndian.Uint64(buf[20:]),
		DurNs:  int64(binary.LittleEndian.Uint64(buf[28:])),
		Token:  binary.LittleEndian.Uint64(buf[36:]),
		Tag:    binary.LittleEndian.Uint64(buf[44:]),
		Trace:  binary.LittleEndian.Uint64(buf[52:]),
	}
	if len(buf) >= FrameSize {
		r.HLC = hlc.Time(binary.LittleEndian.Uint64(buf[60:]))
	}
	return r
}

// encodeName writes a v2 name-table frame: typ is frameLockName or
// frameAgentName. name must already be clipped to MaxNameLen.
func encodeName(buf []byte, typ byte, id uint32, name string) {
	for i := range buf[:frameCRCOff] {
		buf[i] = 0
	}
	buf[0] = typ
	buf[1] = byte(len(name))
	binary.LittleEndian.PutUint32(buf[2:], id)
	copy(buf[6:], name)
	binary.LittleEndian.PutUint32(buf[frameCRCOff:], crc32.ChecksumIEEE(buf[:frameCRCOff]))
}

// decodeName parses a name frame of either version (CRC already
// checked); the name field ends where the frame's CRC begins.
func decodeName(buf []byte) (id uint32, name string) {
	n := int(buf[1])
	if max := len(buf) - 4 - 6; n > max {
		n = max
	}
	return binary.LittleEndian.Uint32(buf[2:]), string(buf[6 : 6+n])
}

// frameOK verifies a frame's CRC; the CRC sits in the frame's last
// four bytes whatever its version.
func frameOK(buf []byte) bool {
	off := len(buf) - 4
	return crc32.ChecksumIEEE(buf[:off]) == binary.LittleEndian.Uint32(buf[off:])
}

// clipName truncates a name to what a name frame can carry.
func clipName(s string) string {
	if len(s) > MaxNameLen {
		return s[:MaxNameLen]
	}
	return s
}

// AppendRecordFrames appends one record to dst as a self-contained run
// of frames — name frames for the lock and agent (when non-empty)
// followed by the event frame — using fixed intern ids, so the bytes
// can travel outside any particular journal's name table, and returns
// the extended buffer. This is the on-wire format of the lockd
// replication log: each log entry travels as one such run, decodable on
// any replica with DecodeRecordFrames.
func AppendRecordFrames(dst []byte, r Record, lockName, agentName string) []byte {
	n := 1
	if lockName != "" {
		n++
	}
	if agentName != "" {
		n++
	}
	off := len(dst)
	dst = append(dst, make([]byte, n*FrameSize)...)
	if lockName != "" {
		r.Lock = 1
		encodeName(dst[off:off+FrameSize], frameLockName, 1, clipName(lockName))
		off += FrameSize
	} else {
		r.Lock = 0
	}
	if agentName != "" {
		r.Agent = 2
		encodeName(dst[off:off+FrameSize], frameAgentName, 2, clipName(agentName))
		off += FrameSize
	} else {
		r.Agent = 0
	}
	encodeEvent(dst[off:off+FrameSize], &r)
	return dst
}

// DecodeRecordFrames inverts AppendRecordFrames: it walks the frame
// run, rejects any CRC damage, and returns the decoded event with its
// names resolved. Exactly one event frame must be present.
func DecodeRecordFrames(data []byte) (Entry, error) {
	if len(data) == 0 || len(data)%FrameSize != 0 {
		return Entry{}, fmt.Errorf("journal: record frames length %d not a frame multiple", len(data))
	}
	var (
		e      Entry
		names  = map[uint32]string{}
		agents = map[uint32]string{}
		seen   bool
	)
	for off := 0; off < len(data); off += FrameSize {
		buf := data[off : off+FrameSize]
		if !frameOK(buf) {
			return Entry{}, fmt.Errorf("journal: record frame at +%d fails CRC", off)
		}
		switch buf[0] {
		case frameLockName:
			id, name := decodeName(buf)
			names[id] = name
		case frameAgentName:
			id, name := decodeName(buf)
			agents[id] = name
		case frameEvent:
			if seen {
				return Entry{}, fmt.Errorf("journal: multiple event frames in record run")
			}
			e.Record = decodeEvent(buf)
			seen = true
		default:
			return Entry{}, fmt.Errorf("journal: unknown frame type %#x in record run", buf[0])
		}
	}
	if !seen {
		return Entry{}, fmt.Errorf("journal: record run has no event frame")
	}
	e.LockName = names[e.Record.Lock]
	e.AgentName = agents[e.Record.Agent]
	return e, nil
}

// encodeSegHeader writes the segment header (always current version).
func encodeSegHeader(buf []byte, index uint64, createdNs int64) {
	copy(buf[0:8], segMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(createdNs))
	binary.LittleEndian.PutUint64(buf[16:], index)
	binary.LittleEndian.PutUint32(buf[24:], 0)
	binary.LittleEndian.PutUint32(buf[28:], crc32.ChecksumIEEE(buf[:28]))
}

// decodeSegHeader validates and parses a segment header of either
// version; frameSize is the stride the segment's frames use.
func decodeSegHeader(buf []byte) (index uint64, createdNs int64, frameSize int, err error) {
	if len(buf) < segHeaderSize {
		return 0, 0, 0, fmt.Errorf("journal: short segment header (%d bytes)", len(buf))
	}
	switch string(buf[0:8]) {
	case segMagic:
		frameSize = FrameSize
	case segMagicV1:
		frameSize = FrameSizeV1
	default:
		return 0, 0, 0, fmt.Errorf("journal: bad segment magic %q", buf[0:8])
	}
	if crc32.ChecksumIEEE(buf[:28]) != binary.LittleEndian.Uint32(buf[28:]) {
		return 0, 0, 0, fmt.Errorf("journal: segment header CRC mismatch")
	}
	return binary.LittleEndian.Uint64(buf[16:]), int64(binary.LittleEndian.Uint64(buf[8:])), frameSize, nil
}
