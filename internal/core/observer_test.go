package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cthread"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestHoldHistogramCountsDeadOwnersTenures: in a run where holders die
// holding the lock, every ended tenure reaches the hold histogram — a
// release or a force-released owner death — so its count equals the
// tenures the monitor saw end and its sum equals the monitor's hold
// total.
func TestHoldHistogramCountsDeadOwnersTenures(t *testing.T) {
	s := newSys(4)
	l := core.New(s, core.Options{Params: core.CombinedParams(4)})
	l.SetHoldDeadline(sim.Us(300))
	o := obs.NewLockObserver()
	l.SetEventSink(o)
	for i := 0; i < 4; i++ {
		crash := i%2 == 1 // threads 1 and 3 exit holding the lock on their last pass
		s.Spawn(fmt.Sprintf("w%d", i), i, 0, func(th *cthread.Thread) {
			for k := 0; k < 3; k++ {
				l.Lock(th)
				l.ConsumeOwnerDied(th)
				th.Compute(sim.Us(40))
				if crash && k == 2 {
					return
				}
				l.Unlock(th)
				th.Compute(sim.Us(15))
			}
		})
	}
	mustRun(t, s)

	snap := l.MonitorSnapshot()
	if snap.OwnerDeaths != 2 {
		t.Fatalf("OwnerDeaths = %d, want 2", snap.OwnerDeaths)
	}
	if l.OwnerID() != 0 {
		t.Fatalf("lock still owned by %d after the run", l.OwnerID())
	}
	hold := o.Hold()
	if hold.Count() != snap.Acquisitions {
		t.Errorf("hold histogram counts %d tenures, monitor ended %d", hold.Count(), snap.Acquisitions)
	}
	if hold.Sum() != snap.HoldTotal {
		t.Errorf("hold histogram sums %v, monitor hold total %v", hold.Sum(), snap.HoldTotal)
	}
}
