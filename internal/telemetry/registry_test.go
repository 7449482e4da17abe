package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cthread"
	"repro/internal/machine"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/sim"
)

// simLockState runs a small contended simulated workload and returns the
// registered entry with one published snapshot.
func simLockState(t *testing.T, r *Registry, name string) *CoreEntry {
	t.Helper()
	sys := cthread.NewSystem(machine.New(machine.DefaultGP1000()))
	l := core.New(sys, core.Options{Params: core.CombinedParams(10)})
	o := obs.NewLockObserver()
	l.SetEventSink(o)
	ce := r.RegisterCore(name, l, o)
	for i := 0; i < 4; i++ {
		sys.Spawn(fmt.Sprintf("w%d", i), i, 0, func(th *cthread.Thread) {
			for k := 0; k < 5; k++ {
				l.Lock(th)
				th.Compute(sim.Us(100))
				l.Unlock(th)
				th.Compute(sim.Us(30))
			}
		})
	}
	if err := sys.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	ce.Publish()
	return ce
}

func TestRegistryCorePublish(t *testing.T) {
	r := NewRegistry()
	ce := simLockState(t, r, "simmy")
	snaps := r.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("Snapshots len = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Name != "simmy" || s.Impl != "sim" {
		t.Fatalf("snapshot identity = %q/%q", s.Name, s.Impl)
	}
	if s.Sim == nil || s.Sim.Acquisitions != 20 {
		t.Fatalf("sim snapshot = %+v, want 20 acquisitions", s.Sim)
	}
	if s.Wait == nil || s.Wait.Count() == 0 {
		t.Fatal("wait histogram missing or empty for a contended run")
	}
	if s.Idle == nil {
		t.Fatal("idle histogram missing for a sim lock")
	}
	ce.Close()
	if r.Len() != 0 {
		t.Fatalf("Len after Close = %d", r.Len())
	}
	ce.Close() // idempotent
}

func TestRegistryNameUniquified(t *testing.T) {
	r := NewRegistry()
	m1 := native.MustNew(native.CombinedPolicy, native.FIFO)
	m2 := native.MustNew(native.CombinedPolicy, native.FIFO)
	m3 := native.MustNew(native.CombinedPolicy, native.FIFO)
	e1 := r.RegisterNative("pool", m1)
	e2 := r.RegisterNative("pool", m2)
	e3 := r.RegisterNative("", m3)
	if e1.Name() != "pool" || e2.Name() != "pool#2" {
		t.Errorf("names = %q, %q; want pool, pool#2", e1.Name(), e2.Name())
	}
	if e3.Name() != "native-lock" {
		t.Errorf("anonymous name = %q, want native-lock", e3.Name())
	}
	// Closing one entry must not unregister a same-named successor.
	e2.Close()
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestRegistryNativePull(t *testing.T) {
	r := NewRegistry()
	m := native.MustNew(native.CombinedPolicy, native.FIFO)
	ne := r.RegisterNative("nat", m).ObserveLatency().Profile(1)
	// Contend: hold the lock while others arrive.
	m.Lock()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			time.Sleep(time.Millisecond)
			m.Unlock()
		}()
	}
	time.Sleep(20 * time.Millisecond)
	m.Unlock()
	wg.Wait()

	s := r.Snapshots()[0]
	if s.Native == nil || s.Native.Acquisitions != 4 {
		t.Fatalf("native stats = %+v, want 4 acquisitions", s.Native)
	}
	if s.Native.Contended < 3 {
		t.Fatalf("contended = %d, want >= 3", s.Native.Contended)
	}
	if s.Wait == nil || s.Wait.Count() < 3 {
		t.Fatalf("wait histogram count = %v, want >= 3", s.Wait)
	}
	if s.Hold == nil || s.Hold.Count() != 4 {
		t.Fatalf("hold histogram count = %v, want 4", s.Hold)
	}
	if len(s.Sites) == 0 {
		t.Fatal("no contention sites with a rate-1 profiler")
	}
	if ne.Profiler().Samples() < 3 {
		t.Fatalf("profiler samples = %d, want >= 3", ne.Profiler().Samples())
	}
}

// TestRegistryConcurrency exercises register/close/scrape under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range r.Snapshots() {
				_ = s.JSON()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				m := native.MustNew(native.CombinedPolicy, native.FIFO)
				e := r.RegisterNative(fmt.Sprintf("m-%d", i), m).ObserveLatency()
				m.Lock()
				m.Unlock()
				e.Close()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-scraperDone
	if r.Len() != 0 {
		t.Fatalf("Len = %d after all entries closed", r.Len())
	}
}
