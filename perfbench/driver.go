package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// caller is one closed-loop user of the system under test: it holds at
// most one lock at a time and issues its next acquire only after the
// previous release returned.
type caller interface {
	acquire(lock int) (token uint64, err error)
	release(lock int, token uint64) error
}

// timedCaller is a traced caller that splits a timed acquire into the
// layers it crossed; d is the caller-observed acquire time.
type timedCaller interface {
	timedAcquire(d time.Duration)
}

// genSequences draws each caller's lock sequence from the seed: lock
// indexes in [0, locks) with Zipf(s) popularity, lock 0 the hottest.
func genSequences(seed int64, callers, length, locks int, s float64) [][]uint16 {
	seqs := make([][]uint16, callers)
	for c := range seqs {
		r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		z := rand.NewZipf(r, s, 1, uint64(locks-1))
		seq := make([]uint16, length)
		for i := range seq {
			seq[i] = uint16(z.Uint64())
		}
		seqs[c] = seq
	}
	return seqs
}

// oracle is the per-run correctness check: single occupancy of every
// lock's critical section and, for fenced services, strictly increasing
// fencing tokens per lock across sessions. Any violation fails the run.
type oracle struct {
	occ    []atomic.Int32
	last   []atomic.Uint64
	fenced bool

	mu         sync.Mutex
	violations []string
	count      atomic.Int64
}

func newOracle(locks int, fenced bool) *oracle {
	return &oracle{occ: make([]atomic.Int32, locks), last: make([]atomic.Uint64, locks), fenced: fenced}
}

func (o *oracle) fail(format string, args ...any) {
	if o.count.Add(1) > 10 {
		return // the first few name the problem; the count says how bad
	}
	o.mu.Lock()
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

func (o *oracle) enter(lock int, token uint64) {
	if n := o.occ[lock].Add(1); n != 1 {
		o.fail("lock %d: %d holders inside the critical section", lock, n)
	}
	if o.fenced {
		if prev := o.last[lock].Swap(token); token <= prev {
			o.fail("lock %d: fencing token %d not above previous %d", lock, token, prev)
		}
	}
}

func (o *oracle) leave(lock int) { o.occ[lock].Add(-1) }

func (o *oracle) report() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := append([]string(nil), o.violations...)
	if n := o.count.Load(); n > int64(len(out)) {
		out = append(out, fmt.Sprintf("... %d oracle violations in all", n))
	}
	return out
}

// loopConfig shapes one measured closed-loop run.
type loopConfig struct {
	seqs        [][]uint16
	sampleEvery int // time 1 in sampleEvery cycles
	warmup      time.Duration
	window      time.Duration
	// markStart and markEnd run at the window's edges (counter snapshots).
	markStart, markEnd func()
}

// loopResult is what the closed loop measured inside its window, plus
// whole-run totals the oracle cross-checks against server counters.
type loopResult struct {
	ops        int64 // cycles completed inside the window
	failed     int64 // acquires or releases that returned an error inside the window
	elapsed    time.Duration
	sliceRates []float64 // cycles per second, per slice of the window
	acq, rel   []dist    // timed acquires and releases, per slice
	allocBytes uint64
	gcCycles   uint32

	grants, releases int64 // successful acquires/releases over the whole run
	violations       []string
}

// callerState is one caller goroutine's counters and per-slice samples,
// padded so the two callers' hot counters do not share a cache line.
type callerState struct {
	done     atomic.Int64
	failed   atomic.Int64
	grants   int64
	releases int64
	acq, rel []*reservoir // indexed by slice
	_        [64]byte
}

// csWork is the critical section's body: a few dozen dependent integer
// steps, well under a microsecond.
func csWork(x uint64) uint64 {
	for i := 0; i < 32; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var csSink atomic.Uint64

// runLoop drives every caller through its sequence for warmup+window,
// timing a fixed 1-in-sampleEvery subset of cycles inside the window.
// Throughput and samples are kept per one-second slice of the window,
// so each metric can be taken per slice and the median reported: a burst
// of interference on the shared machine (CPU steal on a small VM) then
// moves a few slices' values, not the run's.
func runLoop(callers []caller, orc *oracle, lc loopConfig) loopResult {
	slice, nslices := slicing(lc.window)
	var (
		measuring atomic.Bool
		cur       atomic.Int32 // the slice being measured
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	states := make([]*callerState, len(callers))
	for i, cl := range callers {
		st := &callerState{}
		for k := 0; k < nslices; k++ {
			seed := uint64(i*nslices+k) + 1
			st.acq = append(st.acq, newReservoir(sliceSamples, seed))
			st.rel = append(st.rel, newReservoir(sliceSamples, seed+1<<20))
		}
		states[i] = st
		seq := lc.seqs[i]
		timed, _ := cl.(timedCaller)
		wg.Add(1)
		go func(cl caller, st *callerState) {
			defer wg.Done()
			x := uint64(len(seq))
			for n := 0; !stop.Load(); n++ {
				lock := int(seq[n%len(seq)])
				sample := n%lc.sampleEvery == 0 && measuring.Load()
				k := int(cur.Load())
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				tok, err := cl.acquire(lock)
				if err != nil {
					if measuring.Load() {
						st.failed.Add(1)
					}
					continue
				}
				st.grants++
				if sample {
					d := time.Since(t0)
					st.acq[k].add(int64(d))
					if timed != nil {
						timed.timedAcquire(d)
					}
				}
				orc.enter(lock, tok)
				x = csWork(x)
				orc.leave(lock)
				if sample {
					t0 = time.Now()
				}
				if err := cl.release(lock, tok); err != nil {
					if measuring.Load() {
						st.failed.Add(1)
					}
					continue
				}
				st.releases++
				if sample {
					st.rel[k].add(int64(time.Since(t0)))
				}
				st.done.Add(1)
			}
			csSink.Add(x)
		}(cl, st)
	}
	done := func() int64 {
		var n int64
		for _, st := range states {
			n += st.done.Load()
		}
		return n
	}

	time.Sleep(lc.warmup)
	var m0, m1 runtime.MemStats
	if lc.markStart != nil {
		lc.markStart()
	}
	runtime.ReadMemStats(&m0)
	base := done()
	measuring.Store(true)
	t0 := time.Now()
	var rates []float64
	prev, prevT := base, t0
	for k := 1; k <= nslices; k++ {
		time.Sleep(time.Until(t0.Add(time.Duration(k) * slice)))
		now, n := time.Now(), done()
		if k < nslices {
			cur.Store(int32(k))
		} else {
			measuring.Store(false)
		}
		rates = append(rates, float64(n-prev)/now.Sub(prevT).Seconds())
		prev, prevT = n, now
	}
	elapsed := time.Since(t0)
	ops := done() - base
	runtime.ReadMemStats(&m1)
	if lc.markEnd != nil {
		lc.markEnd()
	}
	stop.Store(true)
	wg.Wait()

	res := loopResult{
		ops:        ops,
		elapsed:    elapsed,
		sliceRates: rates,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
	}
	for k := 0; k < nslices; k++ {
		var acqs, rels []*reservoir
		for _, st := range states {
			acqs = append(acqs, st.acq[k])
			rels = append(rels, st.rel[k])
		}
		res.acq = append(res.acq, merge(acqs...))
		res.rel = append(res.rel, merge(rels...))
	}
	for _, st := range states {
		res.failed += st.failed.Load()
		res.grants += st.grants
		res.releases += st.releases
	}
	res.violations = orc.report()
	return res
}

// Reservoir capacities: per caller and slice in the closed loop, and
// per distribution for the traced layers.
const (
	sliceSamples = 1 << 14
	reservoirCap = 1 << 18
)

// slicing cuts the window into one-second slices; a window under four
// seconds stays whole.
func slicing(window time.Duration) (time.Duration, int) {
	if window < 4*time.Second {
		return window, 1
	}
	n := int(window / time.Second)
	return window / time.Duration(n), n
}
