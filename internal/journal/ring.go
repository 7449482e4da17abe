package journal

import "sync/atomic"

// shard is a bounded multi-producer single-consumer ring (Vyukov-style
// sequence slots). Producers reserve a slot with one CAS on enq, copy
// the record, and publish by storing the slot sequence; the writer
// goroutine is the only consumer. A full ring drops the event and
// counts it — the hot path never blocks and never allocates.
type shard struct {
	enq     atomic.Uint64
	_       [56]byte // keep enq off the consumer's cache line
	deq     uint64   // consumer-only
	dropped atomic.Uint64
	// gap is 1 + the reservation position at which the first drop the
	// writer has not yet reported happened (0: none): every record
	// below it was pushed before the loss, every record from it on
	// after, so the writer puts its drops marker right there.
	gap   atomic.Uint64
	mask  uint64
	slots []ringSlot
}

type ringSlot struct {
	seq atomic.Uint64
	rec Record
}

// newShard sizes the ring up to the next power of two, minimum 64.
func newShard(capacity int) *shard {
	n := 64
	for n < capacity {
		n <<= 1
	}
	sh := &shard{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range sh.slots {
		sh.slots[i].seq.Store(uint64(i))
	}
	return sh
}

// push reserves a slot and publishes rec, stamping rec.Seq with the
// ring position (a per-shard total order). Returns false — and counts
// the drop — when the ring is full.
func (sh *shard) push(rec *Record) bool {
	for {
		pos := sh.enq.Load()
		slot := &sh.slots[pos&sh.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if sh.enq.CompareAndSwap(pos, pos+1) {
				rec.Seq = pos
				slot.rec = *rec
				slot.seq.Store(pos + 1) // publish
				return true
			}
		case seq < pos:
			// The slot is still occupied by an entry the consumer has
			// not drained: the ring is full.
			sh.drop(pos)
			return false
		default:
			// Another producer advanced enq between our loads; retry.
		}
	}
}

// shed reports whether the next reservation would find the ring full,
// counting the record dropped if so — a producer-side peek so saturated
// callers can shed before building a record. Benign race: a verdict
// stale by one drain shifts a single record between the ring and the
// drop count, both of which are exact.
func (sh *shard) shed() bool {
	pos := sh.enq.Load()
	if sh.slots[pos&sh.mask].seq.Load() >= pos {
		return false
	}
	sh.drop(pos)
	return true
}

// drop counts one record lost to a full ring at reservation position
// pos, and marks pos as the gap if no unreported gap precedes it.
func (sh *shard) drop(pos uint64) {
	sh.dropped.Add(1)
	if sh.gap.Load() == 0 {
		sh.gap.CompareAndSwap(0, pos+1)
	}
}

// gapBefore reports whether the record at ring position seq follows an
// unreported drop. Consumer-only.
func (sh *shard) gapBefore(seq uint64) bool {
	g := sh.gap.Load()
	return g != 0 && seq+1 >= g
}

// pop drains one record. Consumer-only. Returns false when the ring is
// empty or the next slot is reserved but not yet published (the
// producer between CAS and publish) — the writer just retries on the
// next flush tick rather than spinning.
func (sh *shard) pop(rec *Record) bool {
	slot := &sh.slots[sh.deq&sh.mask]
	seq := slot.seq.Load()
	if seq != sh.deq+1 {
		return false
	}
	*rec = slot.rec
	slot.seq.Store(sh.deq + uint64(len(sh.slots)))
	sh.deq++
	return true
}

// takeDropped returns and resets the drop counter and the gap.
// Consumer-only. The gap is cleared first: a drop racing in between
// records a fresh gap whose count this call may already take, which
// only puts its marker early, never after records that followed it.
func (sh *shard) takeDropped() uint64 {
	sh.gap.Store(0)
	return sh.dropped.Swap(0)
}
