// Command perfbench is the repository's benchmark: closed-loop lock
// workloads over the in-process lock (internal/native), a standalone
// lockd and a 3-node replicated lockd, each run from a seed, checked by
// a correctness oracle, and reported as end-to-end metrics or — with
// -trace 1 — as per-layer metrics taken through the hooks the layers
// already expose.
//
// Usage:
//
//	perfbench -workload inproc-zipf|lockd-hot|cluster-spread -seed N -seconds S -trace 0|1
//
// The report is a table on standard output followed by one JSON line
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}. The
// exit status is 0 only when the oracle passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// mode selects what one phase of a run sets up.
type mode int

const (
	modePlain    mode = iota // the system as users run it
	modeTraced               // the same, with the per-layer probes attached
	modeHooksOff             // inproc only: native.Mutex with no journal sink
	modeSync                 // inproc only: sync.Mutex on the same sequence
)

// workload is one benchmarked system and its input shape.
type workload struct {
	name        string
	setup       func(*runEnv, mode, [][]uint16) (system, error)
	locks       int
	seqLen      int // per-caller lock sequence, cycled
	sampleEvery int // time 1 in sampleEvery cycles
	fenced      bool
}

var workloads = []workload{
	// Two goroutines over 64 native mutexes with journal sinks: only
	// native and journal work; a ~1µs cycle, so 1 in 4 cycles is timed.
	{name: "inproc-zipf", setup: setupInproc, locks: inprocLocks, seqLen: 1 << 20, sampleEvery: 4},
	// Two sessions on a standalone lockd, 4 locks: client, codec,
	// loopback, sessions and the server's queued wait.
	{name: "lockd-hot", setup: setupLockd, locks: hotLocks, seqLen: 1 << 16, sampleEvery: 1, fenced: true},
	// Two sessions on a 3-node cluster, 1024 locks: a quorum round per
	// grant and per release, rare collisions.
	{name: "cluster-spread", setup: setupCluster, locks: spreadLocks, seqLen: 1 << 16, sampleEvery: 1, fenced: true},
}

const (
	callers = 2   // closed-loop callers per workload: one per CPU of the reference box
	zipfS   = 1.1 // lock popularity skew
	// setupsPerRun is how many times an untraced run sets its workload
	// up; setup_s is their median, steadier than any single set-up.
	setupsPerRun = 5
)

// system is one set-up instance of a workload's system under test.
type system interface {
	callers() []caller
	markStart()
	markEnd()
	// check runs the workload's own oracle once the callers stopped.
	check(lr *loopResult) []string
	// layers returns the per-layer metrics of a traced phase.
	layers(lr *loopResult) map[string]float64
	close()
}

// runEnv is what a workload's set-up needs from the run.
type runEnv struct {
	seed         int64
	shareSession bool
	workdir      string
	dirs         int
}

// dir names a fresh directory under the run's work directory.
func (e *runEnv) dir(name string) string {
	e.dirs++
	return filepath.Join(e.workdir, fmt.Sprintf("%s-%d", name, e.dirs))
}

// phaseResult is one measured phase: the loop's window and the set-up
// that preceded it.
type phaseResult struct {
	loop   loopResult
	setup  time.Duration // median of the phase's set-ups
	setups int
	layers map[string]float64
}

// runPhase sets the workload up `setups` times (keeping the last), runs
// the closed loop for window, and checks the oracle.
func runPhase(env *runEnv, w workload, m mode, setups int, window time.Duration) (phaseResult, error) {
	var (
		sys  system
		seqs [][]uint16
		durs []time.Duration
	)
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
		}
		t := time.Now()
		seqs = genSequences(env.seed, callers, w.seqLen, w.locks, zipfS)
		s, err := w.setup(env, m, seqs)
		if err != nil {
			return phaseResult{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		durs = append(durs, time.Since(t))
		sys = s
	}
	defer sys.close()
	warmup := window / 10
	if warmup > time.Second {
		warmup = time.Second
	}
	orc := newOracle(w.locks, w.fenced)
	lr := runLoop(sys.callers(), orc, loopConfig{
		seqs: seqs, sampleEvery: w.sampleEvery, warmup: warmup, window: window,
		markStart: sys.markStart, markEnd: sys.markEnd,
	})
	lr.violations = append(lr.violations, sys.check(&lr)...)
	pr := phaseResult{loop: lr, setup: medianDuration(durs), setups: setups}
	if m == modeTraced {
		pr.layers = sys.layers(&lr)
	}
	return pr, nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or base, for the table
	// tableOnly metrics are printed in the table but left out of the
	// result line.
	tableOnly bool
}

// endToEnd derives the user-facing metrics of one phase.
func endToEnd(pr phaseResult) []metric {
	lr := pr.loop
	ms := []metric{{name: "ops_per_s", value: opsPerS(lr), unit: "1/s",
		note: fmt.Sprintf("median over %d slices; %d cycles in %.2fs", len(lr.sliceRates), lr.ops, lr.elapsed.Seconds())}}
	// The medians are each the median over the window's one-second slices
	// of that slice's value; the notes give the pooled sample counts.
	acq, rel := pooled(lr.acq), pooled(lr.rel)
	for _, q := range []struct {
		name string
		ds   []dist
		all  dist
	}{
		{"acquire_p50_us", lr.acq, acq},
		{"release_p50_us", lr.rel, rel},
	} {
		v := sliceQuantile(q.ds, 0.5)
		ms = append(ms, metric{name: q.name, value: v / 1e3, unit: "us",
			note: fmt.Sprintf("median over %d slices; %d samples of %d timed", len(q.ds), len(q.all.sorted), q.all.seen)})
	}
	// The tail is printed but not part of the result: CPU steal on the
	// shared machine moves a cluster-spread p99 by more than any bound
	// the result may carry. The traced run reports it as acquire_p99_us.
	if v, ok := acq.quantile(0.99); ok {
		ms = append(ms, metric{name: "acquire_p99_us", value: v / 1e3, unit: "us", tableOnly: true,
			note: fmt.Sprintf("%d samples of %d timed; not in the result line", len(acq.sorted), acq.seen)})
	}
	ms = append(ms,
		metric{name: "alloc_bytes_per_op", value: ratio(float64(lr.allocBytes), float64(lr.ops)), unit: "B",
			note: fmt.Sprintf("%d B over %d cycles", lr.allocBytes, lr.ops)},
		metric{name: "setup_s", value: pr.setup.Seconds(), unit: "s",
			note: fmt.Sprintf("median of %d set-ups", pr.setups)},
	)
	return ms
}

// layerMetrics is every per-layer metric, in report order. A workload
// that does not exercise a layer reports its metrics as 0.
var layerMetrics = []struct{ name, unit string }{
	{"acquire_p99_us", "us"},
	{"native.self_p50_ns", "ns"},
	{"native.contended_ratio", "ratio"},
	{"native.wait_ns_per_contended", "ns"},
	{"native.vs_sync_ratio", "ratio"},
	{"native.hooks_off_ns_per_op", "ns"},
	{"native.sync_ns_per_op", "ns"},
	{"journal.sink_p50_ns", "ns"},
	{"journal.records_per_op", "count"},
	{"journal.drop_ratio", "ratio"},
	{"lockclient.retries_per_op", "count"},
	{"lockclient.sheds_per_op", "count"},
	{"lockclient.outside_p50_us", "us"},
	{"wire.bytes_per_op", "B"},
	{"wire.writes_per_op", "count"},
	{"wire.codec_ns_per_msg", "ns"},
	{"lockd.residence_p50_us", "us"},
	{"lockd.residence_p99_us", "us"},
	{"lockd.sheds_per_op", "count"},
	{"lockd.timeouts_per_op", "count"},
	{"replica.propose_p50_us", "us"},
	{"replica.propose_p99_us", "us"},
	{"replica.peer_msgs_per_op", "count"},
	{"replica.peer_bytes_per_op", "B"},
	{"replica.elections_in_run", "count"},
	{"replica.learner_lag_entries", "count"},
	{"hlc.wall_reads_per_op", "count"},
	{"causal.spans_per_op", "count"},
	{"causal.dropped", "count"},
	{"gc.cycles_per_kop", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.acquire_p50_us", "us"},
}

// opsPerS is a phase's completed cycles per second: the median over the
// window's slices.
func opsPerS(lr loopResult) float64 { return median(lr.sliceRates) }

// nsPerOp is a phase's wall time per completed cycle.
func nsPerOp(lr loopResult) float64 { return ratio(1e9, opsPerS(lr)) }

// tracedRun splits the window between an untraced phase (the base of
// trace.overhead_ratio), the traced phase, and — in process — native
// with hooks off and sync.Mutex on the same sequence.
func tracedRun(env *runEnv, w workload, window time.Duration) ([]phaseResult, []metric, error) {
	modes := []mode{modePlain, modeTraced}
	if w.name == "inproc-zipf" {
		modes = append(modes, modeHooksOff, modeSync)
	}
	part := window / time.Duration(len(modes))
	var phases []phaseResult
	for _, m := range modes {
		pr, err := runPhase(env, w, m, 1, part)
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, pr)
	}
	plain, traced := phases[0], phases[1]
	vals := traced.layers
	tlr := traced.loop
	vals["gc.cycles_per_kop"] = ratio(float64(tlr.gcCycles), float64(tlr.ops)/1e3)
	vals["trace.overhead_ratio"] = ratio(opsPerS(tlr), opsPerS(plain.loop))
	tacq, pacq := pooled(tlr.acq), pooled(plain.loop.acq)
	p50, _ := tacq.quantile(0.5)
	vals["trace.acquire_p50_us"] = p50 / 1e3
	p99, ok := pacq.quantile(0.99)
	if !ok {
		p99 = 0 // fewer than minBeyond samples beyond it
	}
	vals["acquire_p99_us"] = p99 / 1e3
	notes := map[string]string{
		"acquire_p99_us":       fmt.Sprintf("untraced phase; %d samples", len(pacq.sorted)),
		"trace.overhead_ratio": fmt.Sprintf("traced %.0f / untraced %.0f cycles/s", opsPerS(tlr), opsPerS(plain.loop)),
		"trace.acquire_p50_us": fmt.Sprintf("%d samples", len(tacq.sorted)),
	}
	if len(phases) == 4 {
		off, syn := nsPerOp(phases[2].loop), nsPerOp(phases[3].loop)
		vals["native.hooks_off_ns_per_op"] = off
		vals["native.sync_ns_per_op"] = syn
		vals["native.vs_sync_ratio"] = ratio(off, syn)
		notes["native.vs_sync_ratio"] = fmt.Sprintf("native hooks off %.1f ns/op over sync.Mutex %.1f ns/op", off, syn)
	}
	var ms []metric
	for _, lm := range layerMetrics {
		v, ok := vals[lm.name]
		note := notes[lm.name]
		if !ok {
			note = "not measured on this workload"
		}
		ms = append(ms, metric{name: lm.name, value: v, unit: lm.unit, note: note})
	}
	return phases, ms, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: inproc-zipf, lockd-hot or cluster-spread")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the lock sequences are drawn from it before timing")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for journals; a fresh subdirectory is used and removed")
	flag.Parse()
	o.setups = setupsPerRun
	o.trace = *trace == 1
	code, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// options is one benchmark run's command line.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	workdir      string
	setups       int
	shareSession bool // both callers on one session: the oracle must fail
}

// outcome is the final JSON line's shape.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and writes its report. It returns the
// exit status: 0 when the oracle passed, 1 when it did not, 2 on bad
// arguments or a failed set-up (no result is printed then).
func run(out io.Writer, o options) (int, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.setups < 1 {
		return 2, fmt.Errorf("-seconds and -setups must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return 2, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)
	env := &runEnv{seed: o.seed, shareSession: o.shareSession, workdir: dir}
	window := time.Duration(o.seconds * float64(time.Second))

	var (
		phases []phaseResult
		ms     []metric
	)
	if o.trace {
		phases, ms, err = tracedRun(env, *w, window)
	} else {
		var pr phaseResult
		pr, err = runPhase(env, *w, modePlain, o.setups, window)
		phases, ms = []phaseResult{pr}, endToEnd(pr)
	}
	if err != nil {
		return 2, err
	}
	res := outcome{Correct: true, Metrics: map[string]jsonMetric{}}
	var violations []string
	for _, pr := range phases {
		res.Attempted += pr.loop.ops + pr.loop.failed
		res.Failed += pr.loop.failed
		violations = append(violations, pr.loop.violations...)
	}
	res.Correct = len(violations) == 0
	writeReport(out, o, ms, res, violations)
	if !res.Correct {
		return 1, fmt.Errorf("correctness oracle failed (%d findings)", len(violations))
	}
	return 0, nil
}

func writeReport(out io.Writer, o options, ms []metric, res outcome, violations []string) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t callers=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, callers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, m := range ms {
		fmt.Fprintf(out, "%-30s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		if !m.tableOnly {
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	fmt.Fprintf(out, "%-30s %14.6g %-6s %d failed of %d attempted\n", "fail_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	sort.Strings(violations)
	for _, v := range violations {
		fmt.Fprintln(out, "# VIOLATION:", v)
	}
	line, _ := json.Marshal(res) // plain numbers and strings: cannot fail
	fmt.Fprintln(out, string(line))
}
