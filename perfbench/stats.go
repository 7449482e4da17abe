package main

import (
	"math"
	"sort"
	"time"
)

// reservoir keeps a uniform random sample of at most cap(buf) values out
// of every value offered (Vitter's algorithm R), so a long run's
// percentiles cover the whole measured window in bounded memory. One
// reservoir belongs to one goroutine.
type reservoir struct {
	buf  []int64
	seen int64
	rng  uint64
}

func newReservoir(capacity int, seed uint64) *reservoir {
	return &reservoir{buf: make([]int64, 0, capacity), rng: seed | 1}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	// xorshift64: cheap, seeded, good enough to pick a slot.
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % uint64(r.seen); j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}

// dist is the merged, sorted sample of several reservoirs.
type dist struct {
	sorted []int64
	seen   int64 // values offered, of which sorted is a uniform sample
}

func merge(rs ...*reservoir) dist {
	var d dist
	for _, r := range rs {
		d.sorted = append(d.sorted, r.buf...)
		d.seen += r.seen
	}
	sort.Slice(d.sorted, func(i, j int) bool { return d.sorted[i] < d.sorted[j] })
	return d
}

// quantile returns the q-quantile by linear interpolation between order
// statistics, and whether at least minBeyond samples lie above it — the
// rule for printing a tail percentile at all.
func (d dist) quantile(q float64) (float64, bool) {
	n := len(d.sorted)
	if n == 0 {
		return 0, false
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		hi = n - 1
	}
	v := float64(d.sorted[lo]) + (pos-float64(lo))*float64(d.sorted[hi]-d.sorted[lo])
	beyond := float64(n) * (1 - q)
	return v, beyond >= minBeyond
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// pooled merges every slice's sample into one distribution, each slice
// weighted by the samples it kept.
func pooled(ds []dist) dist {
	var d dist
	for _, x := range ds {
		d.sorted = append(d.sorted, x.sorted...)
		d.seen += x.seen
	}
	sort.Slice(d.sorted, func(i, j int) bool { return d.sorted[i] < d.sorted[j] })
	return d
}

// sliceQuantile is the median over slices of each slice's q-quantile,
// counting only slices with minBeyond samples beyond it.
func sliceQuantile(ds []dist, q float64) float64 {
	var vs []float64
	for _, d := range ds {
		if v, ok := d.quantile(q); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
