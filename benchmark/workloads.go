package main

import (
	"time"

	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// workload is one traffic mix and deployment shape the benchmark runs.
// Every workload deploys DefaultConfig (5 workers per shard, 5 ms epochs,
// dlog, pipelining and fallback on) and differs only in the fields here.
type workload struct {
	Name string
	// Why records what the workload stresses that the others do not.
	Why string

	Mix          ycsb.Mix
	Dist         string // key distribution: "uniform" or "zipfian"
	Records      int
	PayloadBytes int
	Shards       int

	// RefRPS is the open-loop rate the latency, host-cost and outage
	// metrics are measured at.
	RefRPS float64
	// Window is the virtual time a slice sends requests for; Drain is how
	// long after it the run may continue to collect the last responses.
	Window, Drain time.Duration
	// Streams is how many independent request streams the virtual metrics
	// pool: the measured slices run stream 0, 1, ... and start over.
	Streams int
	// The max-rate ladder, the window one probe of it sends for, and the
	// whole-window p99 limit.
	LadderLo, LadderHi, LadderStep int
	LadderWindow                   time.Duration
	Limit                          time.Duration

	// Crash recovery (crash_big only): with Crashes the run follows
	// crashPoints (slice.go).
	SnapshotEvery, SnapshotRetain int
	RetryEvery                    time.Duration
	Crashes                       bool
}

// warmUp is the head of every window whose requests are sent and checked
// but left out of the latency and outage metrics.
const warmUp = 3 * time.Second

// tailLimit bounds the p99 of requests sent in the final fifth of a
// ladder probe: a backlog that grows through the window shows there.
const tailLimit = 100 * time.Millisecond

var workloads = []workload{
	{
		Name: "ycsb_m",
		Why:  "paper Fig. 4 mix, no conflicts, 1 KB rows: sim kernel, epoch loop and per-message allocation dominate",
		Mix:  ycsb.WorkloadM, Dist: "uniform", Records: 1000, PayloadBytes: 1000,
		RefRPS: 2000, Window: 12 * time.Second, Drain: 10 * time.Second, Streams: 16,
		LadderLo: 2000, LadderHi: 5150, LadderStep: 50, LadderWindow: 13 * time.Second, Limit: 100 * time.Millisecond,
	},
	{
		Name: "hot_t",
		Why:  "all transfers on Zipfian keys: Aria reserve/validate/fallback rounds dominate, idle on ycsb_m",
		Mix:  ycsb.WorkloadT, Dist: "zipfian", Records: 1000, PayloadBytes: 1000,
		RefRPS: 300, Window: 30 * time.Second, Drain: 10 * time.Second, Streams: 16,
		LadderLo: 250, LadderHi: 880, LadderStep: 10, LadderWindow: 27 * time.Second, Limit: 100 * time.Millisecond,
	},
	{
		Name: "xshard",
		Why:  "ycsb_m mix on 4 shards: the only run of the sequencer, scoped fences and global execution path",
		Mix:  ycsb.WorkloadM, Dist: "uniform", Records: 1000, PayloadBytes: 1000, Shards: 4,
		RefRPS: 1000, Window: 20 * time.Second, Drain: 10 * time.Second, Streams: 12,
		LadderLo: 1000, LadderHi: 2575, LadderStep: 25, LadderWindow: 17 * time.Second, Limit: 100 * time.Millisecond,
	},
	{
		Name: "crash_big",
		Why:  "64 KB rows with a coordinator and a worker crash: log replay and snapshot restore instead of append and take",
		Mix:  ycsb.WorkloadA, Dist: "uniform", Records: 250, PayloadBytes: 64 << 10,
		RefRPS: 500, Window: 20 * time.Second, Drain: 30 * time.Second, Streams: 12,
		LadderLo: 400, LadderHi: 1020, LadderStep: 20, LadderWindow: 20 * time.Second, Limit: 5 * time.Second,
		SnapshotEvery: 200, SnapshotRetain: 2, RetryEvery: 250 * time.Millisecond, Crashes: true,
	},
}
