package obs

import "repro/internal/core"

// LockObserver maintains wait, hold and idle latency histograms for one
// lock. It is a core.EventSink: attach it with core.Lock.SetEventSink
// (or tee it with other sinks), and the lock's events feed it one
// duration per contended acquisition (wait), per ended tenure (hold: a
// release, or a dead owner's force-released tenure) and per completed
// locking cycle (idle).
type LockObserver struct {
	wait Histogram
	hold Histogram
	idle Histogram
}

var _ core.EventSink = (*LockObserver)(nil)

// NewLockObserver returns an empty observer.
func NewLockObserver() *LockObserver { return &LockObserver{} }

// LockEvent implements core.EventSink. A contended acquisition carries
// both its wait and the locking cycle it ends.
func (o *LockObserver) LockEvent(e core.Event) {
	switch {
	case e.Kind == core.EventAcquire && e.Waited > 0:
		o.wait.Record(e.Waited)
		o.idle.Record(e.Idle)
	case e.Kind == core.EventRelease, e.Kind == core.EventOwnerDeath && e.Held > 0:
		o.hold.Record(e.Held)
	}
}

// Wait returns a snapshot of the wait-latency histogram (registration to
// grant, contended acquisitions only).
func (o *LockObserver) Wait() Histogram { return o.wait }

// Hold returns a snapshot of the hold-latency histogram (grant to
// release).
func (o *LockObserver) Hold() Histogram { return o.hold }

// Idle returns a snapshot of the idle-span histogram (the paper's locking
// cycle: release to completed grant).
func (o *LockObserver) Idle() Histogram { return o.idle }
