// Package obs is the lock observability layer: streaming latency
// histograms, per-lock wait/hold/idle distributions, and a windowed
// sampler that turns the monitor's lifetime counters into interval
// deltas and recent percentiles.
//
// The monitor (internal/core) aggregates totals; the tracer
// (internal/trace) records interleavings; obs keeps distributions. The
// tracer and LockObserver both read the lock's one event stream: each is
// a core.EventSink.
// Averages hide tail behavior, and it is the tail — the p99 wait, not the
// mean — that should drive spin-vs-sleep and fairness reconfiguration
// decisions. All record paths are allocation-free so they can model
// piggybacked monitoring hardware, like the monitor counters do.
package obs

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// numBuckets covers every positive int64 duration: bucket i (i >= 1)
// holds durations in [2^(i-1), 2^i) nanoseconds; bucket 0 holds
// non-positive durations.
const numBuckets = 64

// Histogram is a fixed log-bucket (base-2) streaming latency histogram.
// The zero value is ready to use; Record never allocates. Copying the
// struct snapshots it, which is how deltas between two instants are taken.
type Histogram struct {
	counts [numBuckets]int64
	count  int64
	sum    sim.Duration
	max    sim.Duration
}

// bucketOf returns the bucket index for d.
func bucketOf(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketBounds returns the half-open range [lo, hi) of durations that land
// in bucket i.
func BucketBounds(i int) (lo, hi sim.Duration) {
	if i <= 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// Record adds one observation. It is allocation-free.
func (h *Histogram) Record(d sim.Duration) {
	h.counts[bucketOf(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observations.
func (h Histogram) Sum() sim.Duration { return h.sum }

// Max returns the largest observation (exact for a live histogram; an
// upper bucket bound for one produced by Delta).
func (h Histogram) Max() sim.Duration { return h.max }

// Mean returns the mean observation.
func (h Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.count)
}

// Quantile returns the q-th percentile (0 <= q <= 100), linearly
// interpolated inside the containing log bucket via stats.BucketQuantile.
// An empty histogram yields 0.
func (h Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	counts := make([]int64, 0, numBuckets)
	upper := make([]float64, 0, numBuckets)
	for i, c := range h.counts {
		_, hi := BucketBounds(i)
		counts = append(counts, c)
		upper = append(upper, float64(hi)-1)
	}
	v := stats.BucketQuantile(q, counts, upper, 0)
	if m := float64(h.max); h.max > 0 && v > m {
		v = m // interpolation cannot exceed the observed maximum
	}
	return sim.Duration(v)
}

// Delta returns a histogram of the observations recorded after prev was
// snapshotted from the same histogram. Counter regressions (a misuse) are
// clamped to zero. The result's Max is approximate: the upper bound of
// its highest nonzero bucket (capped by the live maximum).
func (h Histogram) Delta(prev Histogram) Histogram {
	var d Histogram
	for i := range h.counts {
		if c := h.counts[i] - prev.counts[i]; c > 0 {
			d.counts[i] = c
			d.count += c
			_, hi := BucketBounds(i)
			if m := hi - 1; m > d.max {
				d.max = m
			}
		}
	}
	if s := h.sum - prev.sum; s > 0 {
		d.sum = s
	}
	if d.max > h.max {
		d.max = h.max
	}
	return d
}

// Bucket is one nonzero histogram bucket, for reports.
type Bucket struct {
	Lo, Hi sim.Duration // half-open duration range [Lo, Hi)
	Count  int64
}

// Buckets returns the nonzero buckets in ascending duration order.
func (h Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// String summarizes the distribution one line: count, mean and the three
// standard percentile readouts.
func (h Histogram) String() string {
	if h.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(50), h.Quantile(90), h.Quantile(99), h.max)
}

// Render writes an ASCII bar chart of the nonzero buckets, width columns
// wide at the tallest bucket.
func (h Histogram) Render(width int) string {
	bks := h.Buckets()
	if len(bks) == 0 {
		return "(empty)\n"
	}
	if width <= 0 {
		width = 40
	}
	var tallest int64
	for _, b := range bks {
		if b.Count > tallest {
			tallest = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bks {
		n := int(int64(width) * b.Count / tallest)
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(&sb, "%12v - %-12v %-*s %d\n", b.Lo, b.Hi, width, strings.Repeat("#", n), b.Count)
	}
	return sb.String()
}
