package main

import (
	"fmt"
	"io"
	"time"
)

// setup_s is taken over back-to-back set-ups, after one discarded (the
// first set-up in a process is several times slower: page faults, heap
// growth). They come in groups of setupGroup with the calibration kernel
// between groups, each set-up judged by the two kernel runs around its
// group: at least setupGroupsMin groups, then more while the set-ups
// themselves have taken less than setupBudget, up to setupGroupsMax.
const (
	setupGroup     = 8
	setupGroupsMin = 3
	setupGroupsMax = 32
	setupBudget    = 600 * time.Millisecond
)

// budget is what a run may spend: the time the measured slices may fill
// and, for local iteration, a fixed number of measured slices instead.
type budget struct {
	Deadline time.Time
	Slices   int // > 0: run exactly this many measured slices
}

// result is one workload's untraced run.
type result struct {
	Metrics map[string]float64 // every end-to-end metric
	// Attempted and Failed count the requests of the measured slices at
	// RefRPS (ladder probes look for the rate at which requests start to
	// fail, so theirs are not counted).
	Attempted, Failed int
	Problems          []string // violated checks; empty when correct
	Streams           []virtResult
	HostSlices        int
	LatencySamples    int
	Probes            []probe
	Setups            int
}

func (r *result) Correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// sliceRun is one slice at RefRPS with the oracle applied.
type sliceRun struct {
	Virt     virtResult
	Host     hostCost
	Lat      []time.Duration
	Problems []string
}

// usPerTxn is the slice's host time per answered request, at nominal
// machine speed given the slowdown measured around it.
func (s *sliceRun) usPerTxn(slowdown float64) float64 {
	return float64(s.Host.Wall) / float64(time.Microsecond) / float64(s.Host.Answered) / slowdown
}

// runner runs slices of one workload and caches the reference balances of
// each stream at the reference rate: repeated slices of a stream replay the
// identical requests.
type runner struct {
	w    *workload
	seed int64
	refs map[int]map[string]int64
}

func newRunner(w *workload, seed int64) *runner {
	return &runner{w: w, seed: seed, refs: map[int]map[string]int64{}}
}

// slice deploys stream's requests on a fresh system, runs it, checks it
// against the reference and reduces it to its metrics.
func (r *runner) slice(stream int, rate float64, window time.Duration, hooks runHooks) (*sliceRun, *deployment, error) {
	d, err := deploy(r.w, streamSeed(r.seed, stream), rate, window, hooks.Tracer)
	if err != nil {
		return nil, nil, err
	}
	s := sliceRun{Host: d.run(hooks)}
	atRef := rate == r.w.RefRPS && window == r.w.Window
	var want map[string]int64
	if atRef {
		want = r.refs[stream]
	}
	if want == nil {
		if want, err = reference(r.w.Records, d.rec.reqs); err != nil {
			return nil, nil, err
		}
		if atRef {
			r.refs[stream] = want
		}
	}
	failed, problems := d.checkSlice(want)
	s.Problems = problems
	s.Virt, s.Lat = d.measure(failed, s.Host.Events)
	return &s, d, nil
}

// probe is one step of the max-rate search.
type probe struct {
	Rate    int
	Pass    bool
	Aborted bool
	P99     time.Duration
	TailP99 time.Duration
	Failed  int
}

// maxRate bisects the workload's ladder for the highest rate at which no
// request fails, the whole-window p99 meets Limit and the p99 of the
// final fifth meets tailLimit. It assumes the predicate is monotone in the
// rate; if even the lowest rate fails it reports one step below the
// ladder, so the metric is never 0.
func (r *runner) maxRate() (int, []probe, error) {
	w := r.w
	n := (w.LadderHi-w.LadderLo)/w.LadderStep + 1
	lo, hi := -1, n // lo passes (by assumption below the ladder), hi fails
	var probes []probe
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		rate := w.LadderLo + mid*w.LadderStep
		p, err := r.probe(rate)
		if err != nil {
			return 0, nil, err
		}
		probes = append(probes, p)
		if p.Pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return w.LadderLo + lo*w.LadderStep, probes, nil
}

func (r *runner) probe(rate int) (probe, error) {
	w := r.w
	// Once more than 1 % of the window's requests are later than Limit the
	// p99 cannot meet it, and a saturated probe would otherwise spend
	// most of the run's time draining its backlog. The 1.2 covers the
	// Poisson spread of the request count.
	allowed := int(0.01 * 1.2 * float64(rate) * (w.LadderWindow - warmUp).Seconds())
	aborted := false
	hooks := runHooks{Abort: func(d *deployment, now time.Duration) bool {
		late := 0
		for i, sent := range d.rec.sent {
			if sent < warmUp {
				continue
			}
			if done := d.rec.done[i]; (done == 0 && now-sent > w.Limit) || done-sent > w.Limit {
				late++
			}
		}
		aborted = late > allowed
		return aborted
	}}
	s, _, err := r.slice(0, float64(rate), w.LadderWindow, hooks)
	if err != nil {
		return probe{}, err
	}
	v := s.Virt
	return probe{
		Rate: rate, Aborted: aborted, P99: v.P99, TailP99: v.TailP99, Failed: v.Failed,
		Pass: !aborted && v.Failed == 0 && len(s.Problems) == 0 && v.P99 <= w.Limit && v.TailP99 <= tailLimit,
	}, nil
}

// setUp is one timed set-up: deploy and Cluster.Start.
func (r *runner) setUp() (time.Duration, error) {
	t0 := time.Now()
	d, err := deploy(r.w, streamSeed(r.seed, 0), r.w.RefRPS, r.w.Window, nil)
	if err != nil {
		return 0, err
	}
	d.cluster.Start()
	return time.Since(t0), nil
}

// setupLoop returns the interquartile mean of the set-up times in seconds
// at nominal machine speed, and how many set-ups it timed.
func (r *runner) setupLoop() (float64, int, error) {
	if _, err := r.setUp(); err != nil { // discarded
		return 0, 0, err
	}
	var totals []float64
	var spent time.Duration
	speed := newSpeedometer()
	for g := 0; g < setupGroupsMin || (g < setupGroupsMax && spent < setupBudget); g++ {
		var took [setupGroup]time.Duration
		for i := range took {
			var err error
			if took[i], err = r.setUp(); err != nil {
				return 0, 0, err
			}
			spent += took[i]
		}
		slow := speed.lap()
		for _, t := range took {
			totals = append(totals, t.Seconds()/slow)
		}
	}
	return iqMean(totals), len(totals), nil
}

// runWorkload is the untraced run: the max-rate search, the set-up loop,
// then one discarded warm-up slice and measured slices over the
// workload's streams, cycling through them again until the budget is
// used. Virtual metrics pool the first pass over the streams, so they do
// not depend on how many slices the budget allowed; every later slice of
// a stream must reproduce that stream's first result exactly.
func runWorkload(w *workload, seed int64, b budget, log io.Writer) (*result, error) {
	t0 := time.Now()
	r := newRunner(w, seed)
	res := &result{Metrics: map[string]float64{}}

	rate, probes, err := r.maxRate()
	if err != nil {
		return nil, err
	}
	res.Probes = probes
	res.Metrics["virt_max_rate_rps"] = float64(rate)

	if res.Metrics["setup_s"], res.Setups, err = r.setupLoop(); err != nil {
		return nil, err
	}

	var us, allocs, bytes, heap []float64
	var lat []time.Duration
	var outage float64
	var lastSlice time.Duration
	streams := w.Streams
	if b.Slices > 0 && b.Slices < streams {
		streams = b.Slices
	}
	speed := newSpeedometer()
	for i := -1; ; i++ { // slice -1 is the warm-up
		if b.Slices > 0 && i >= b.Slices {
			break
		}
		if b.Slices == 0 && i >= streams && time.Now().Add(lastSlice).After(b.Deadline) {
			break
		}
		s0 := time.Now()
		stream := (i + streams) % streams
		s, _, err := r.slice(stream, w.RefRPS, w.Window, runHooks{})
		if err != nil {
			return nil, err
		}
		slow := speed.lap()
		lastSlice = time.Since(s0)
		for _, p := range s.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("slice %d (stream %d): %s", i, stream, p))
		}
		if i < 0 {
			continue
		}
		res.Attempted += s.Virt.Submitted
		res.Failed += s.Virt.Failed
		if i < streams {
			res.Streams = append(res.Streams, s.Virt)
			lat = append(lat, s.Lat...)
			outage += ms(s.Virt.Outage) / float64(streams)
		} else if s.Virt != res.Streams[stream] {
			res.Problems = append(res.Problems, fmt.Sprintf("slice %d: stream %d not deterministic:\n  first %+v\n  now   %+v", i, stream, res.Streams[stream], s.Virt))
		}
		txns := float64(s.Host.Answered)
		us = append(us, s.usPerTxn(slow))
		allocs = append(allocs, float64(s.Host.Mallocs)/txns)
		bytes = append(bytes, float64(s.Host.Bytes)/txns)
		heap = append(heap, float64(s.Host.LiveHeap)/1e6)
	}
	res.HostSlices = len(us)
	res.LatencySamples = len(lat)
	res.Metrics["virt_p50_ms"] = ms(percentile(lat, 0.50))
	res.Metrics["virt_p99_ms"] = ms(percentile(lat, 0.99))
	res.Metrics["virt_outage_ms"] = outage
	res.Metrics["host_us_per_txn"] = iqMean(us)
	res.Metrics["host_allocs_per_txn"] = iqMean(allocs)
	res.Metrics["host_bytes_per_txn"] = iqMean(bytes)
	res.Metrics["host_live_heap_mb"] = iqMean(heap)
	if log != nil {
		fmt.Fprintf(log, "%s: %d probes, %d set-ups, %d slices in %.1fs\n", w.Name, len(probes), res.Setups+1, len(us)+1, time.Since(t0).Seconds())
	}
	return res, nil
}
