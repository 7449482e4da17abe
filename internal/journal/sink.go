package journal

import (
	"sync"

	"repro/internal/native"
	"repro/internal/sim"
)

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

// SimSink journals one simulated core.Lock's lifecycle. It satisfies
// core.CausalObserver structurally (this package does not import core):
// attach with lock.SetCausalObserver(sink), or tee it with a causal
// tracker via core.TeeCausalObserver. Record timestamps are simulated
// nanoseconds (Origin OriginSim flags that for readers).
type SimSink struct {
	j    *Journal
	lock uint32

	mu        sync.Mutex
	waitStart map[string]int64
	agents    map[string]uint32
	holder    string
	holdAt    int64
}

// NewSimSink builds a SimSink journaling under the given lock name.
func NewSimSink(j *Journal, lock string) *SimSink {
	return &SimSink{
		j:         j,
		lock:      j.InternLock(lock),
		waitStart: make(map[string]int64),
		agents:    make(map[string]uint32),
	}
}

func (s *SimSink) agentID(actor string) uint32 {
	if id, ok := s.agents[actor]; ok {
		return id
	}
	id := s.j.InternAgent(actor)
	s.agents[actor] = id
	return id
}

// LockWait implements core.CausalObserver.
func (s *SimSink) LockWait(at sim.Time, actor, holder string) {
	s.mu.Lock()
	s.waitStart[actor] = int64(at)
	id := s.agentID(actor)
	s.mu.Unlock()
	s.j.Append(Record{Kind: KindWait, Origin: OriginSim, AtNs: int64(at), Lock: s.lock, Agent: id})
}

// LockWaitDone implements core.CausalObserver. Grants are journaled by
// LockOwner; only the abandoned waits record here.
func (s *SimSink) LockWaitDone(at sim.Time, actor string, acquired bool) {
	s.mu.Lock()
	delete(s.waitStart, actor)
	id := s.agentID(actor)
	s.mu.Unlock()
	if !acquired {
		s.j.Append(Record{Kind: KindTimeout, Origin: OriginSim, AtNs: int64(at), Lock: s.lock, Agent: id})
	}
}

// LockOwner implements core.CausalObserver.
func (s *SimSink) LockOwner(at sim.Time, actor string) {
	s.mu.Lock()
	prev, prevAt := s.holder, s.holdAt
	s.holder, s.holdAt = actor, int64(at)
	var prevID, id uint32
	if prev != "" {
		prevID = s.agentID(prev)
	}
	var waited int64
	if actor != "" {
		id = s.agentID(actor)
		if start, ok := s.waitStart[actor]; ok {
			waited = int64(at) - start
		}
	}
	s.mu.Unlock()
	if prev != "" {
		s.j.Append(Record{Kind: KindRelease, Origin: OriginSim, AtNs: int64(at),
			Lock: s.lock, Agent: prevID, DurNs: int64(at) - prevAt})
	}
	if actor != "" {
		s.j.Append(Record{Kind: KindAcquire, Origin: OriginSim, AtNs: int64(at),
			Lock: s.lock, Agent: id, DurNs: waited})
	}
}
