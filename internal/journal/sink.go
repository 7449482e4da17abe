package journal

import "repro/internal/native"

// Sink adapts one native.Mutex's event stream into journal records.
// Attach with m.SetEventSink(j.Sink("name")) — or TeeSink it with a
// causal tracker. LockEvent is lock-free end to end: the ids are
// interned once at construction and the append is a shard-ring
// reservation.
type Sink struct {
	j     *Journal
	lock  uint32
	agent uint32
}

// Sink returns a native event sink journaling under the given lock
// name. Must not be called on a nil Journal.
func (j *Journal) Sink(lock string) *Sink { return &Sink{j: j, lock: j.InternLock(lock)} }

// SinkAs is Sink with a fixed agent identity stamped on every record
// (for per-process locks where the owner is known statically).
func (j *Journal) SinkAs(lock, agent string) *Sink {
	return &Sink{j: j, lock: j.InternLock(lock), agent: j.InternAgent(agent)}
}

// eventKinds maps native lifecycle kinds to journal kinds (indexed by
// native.EventKind). Unlisted indexes stay KindInvalid and are ignored.
var eventKinds = func() [16]Kind {
	var t [16]Kind
	t[native.EventWait] = KindWait
	t[native.EventAcquire] = KindAcquire
	t[native.EventRelease] = KindRelease
	t[native.EventTimeout] = KindTimeout
	t[native.EventAbort] = KindAbort
	t[native.EventWatchdog] = KindWatchdog
	t[native.EventOwnerDead] = KindOwnerDead
	t[native.EventReconfig] = KindReconfig
	return t
}()

// LockEvent implements native.EventSink. The saturated case sheds
// before building the record: when the shard ring is full the event is
// counted dropped and nothing else happens, so an overwhelmed flight
// recorder costs the producer two atomic loads and one add.
func (s *Sink) LockEvent(e native.LockEvent) {
	j := s.j
	if j == nil || j.closed.Load() || uint(e.Kind) >= uint(len(eventKinds)) {
		return
	}
	kind := eventKinds[e.Kind]
	if kind == KindInvalid {
		return
	}
	sh := j.shards[s.lock&j.shardMask]
	if sh.shed() {
		return
	}
	rec := Record{
		AtNs:   e.When.UnixNano(),
		Tag:    e.Tag,
		Lock:   s.lock,
		Agent:  s.agent,
		Origin: OriginNative,
		Kind:   kind,
	}
	switch kind {
	case KindAcquire:
		rec.DurNs = int64(e.Waited)
	case KindRelease, KindWatchdog, KindOwnerDead:
		rec.DurNs = int64(e.Held)
	}
	sh.push(&rec)
}
