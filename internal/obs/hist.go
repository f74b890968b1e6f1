package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// PercentileOf returns the p-th percentile (0 < p <= 100) of an
// ascending-sorted sample slice using the nearest-rank method, 0 for an
// empty slice. This is the repo's one percentile implementation:
// Histogram (and therefore every client latency series and benchmark p50/p99
// column) delegates here.
func PercentileOf(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Histogram records duration samples and answers quantile queries. The
// zero value is ready to use and retains every sample (exact
// percentiles). Bound switches it to reservoir mode: a fixed-capacity
// uniform sample (Vitter's algorithm R) with a private deterministic
// PRNG, so memory stays constant over unbounded runs — e.g. the nightly
// 100-seed sweeps — and quantiles become estimates while count, sum,
// mean, min and max stay exact. The reservoir never touches the
// simulation's RNG, so bounding a histogram cannot perturb a
// deterministic run.
//
// Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	cap     int // 0: exact mode
	rng     uint64
	seen    int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// NewBoundedHistogram returns a reservoir histogram retaining at most
// capacity samples.
func NewBoundedHistogram(capacity int) *Histogram {
	h := &Histogram{}
	h.Bound(capacity)
	return h
}

// Bound switches the histogram to reservoir mode with the given
// capacity (minimum 1). Samples already held beyond the capacity are
// truncated; counts and extrema are preserved.
func (h *Histogram) Bound(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cap = capacity
	if len(h.samples) > capacity {
		h.samples = h.samples[:capacity]
		h.sorted = false
	}
}

// nextRand is a xorshift64* step: deterministic, seeded from a fixed
// constant, private to this histogram.
func (h *Histogram) nextRand() uint64 {
	if h.rng == 0 {
		h.rng = 0x9E3779B97F4A7C15
	}
	h.rng ^= h.rng >> 12
	h.rng ^= h.rng << 25
	h.rng ^= h.rng >> 27
	return h.rng * 0x2545F4914F6CDD1D
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == 0 || d < h.min {
		h.min = d
	}
	if h.seen == 0 || d > h.max {
		h.max = d
	}
	h.seen++
	h.sum += d
	if h.cap == 0 || len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		h.sorted = false
		return
	}
	// Reservoir replacement: keep each of the seen samples with equal
	// probability cap/seen.
	if j := h.nextRand() % uint64(h.seen); j < uint64(h.cap) {
		h.samples[j] = d
		h.sorted = false
	}
}

func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Percentile returns the p-th percentile: exact in exact mode, a
// reservoir estimate in bounded mode.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sortLocked()
	return PercentileOf(h.samples, p)
}

// HistSnapshot is a histogram's summary read in one consistent view:
// the p50/p99 row shape every benchmark table and JSON artifact shares.
type HistSnapshot struct {
	Count int64
	Sum   time.Duration
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P99   time.Duration
}

// Snapshot computes the summary under one lock.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sortLocked()
	var mean time.Duration
	if h.seen > 0 {
		mean = h.sum / time.Duration(h.seen)
	}
	return HistSnapshot{
		Count: h.seen,
		Sum:   h.sum,
		Mean:  mean,
		Min:   h.min,
		Max:   h.max,
		P50:   PercentileOf(h.samples, 50),
		P99:   PercentileOf(h.samples, 99),
	}
}

// P50Ms returns the median in float milliseconds (the unit of the JSON
// benchmark artifacts).
func (s HistSnapshot) P50Ms() float64 { return float64(s.P50) / float64(time.Millisecond) }

// P99Ms returns the 99th percentile in float milliseconds.
func (s HistSnapshot) P99Ms() float64 { return float64(s.P99) / float64(time.Millisecond) }

// String renders the one-line summary shape shared by test logs.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p99=%s max=%s",
		s.Count, s.Mean.Round(time.Microsecond),
		s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}
