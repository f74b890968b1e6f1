package main

// metric describes one reported number. The end-to-end list and the
// per-layer list below are the benchmark's contract: BENCHMARK.json
// repeats their names, units, directions and bounds, and the smoke test
// fails when the two disagree.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; also the
	// A/A agreement bound. Per-layer metrics have none.
	Bound float64
	// Source says how a per-layer metric is obtained: T (virtual-time
	// Tracer spans), C (counters the system already exports), D (a layer
	// driver timing the layer's public functions), M (allocation profile
	// attribution) or B (the benchmark's own host-time spans).
	Source string
	// Moves names the end-to-end metric and the workload a change in this
	// per-layer metric is expected to move.
	Moves string
}

var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "virt_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "virt_p99_ms", Unit: "ms", Better: "lower", Bound: 0.12},
	{Name: "virt_max_rate_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "virt_outage_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "host_us_per_txn", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "host_allocs_per_txn", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "host_bytes_per_txn", Unit: "B", Better: "lower", Bound: 0.04},
	{Name: "host_live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

var perLayer = []metric{
	// Simulation kernel.
	{Name: "sim.events_per_txn", Unit: "count", Better: "lower", Source: "C", Moves: "host_us_per_txn on all four, most on ycsb_m"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Source: "D", Moves: "host_us_per_txn on all four, most on ycsb_m; no virt_* metric"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower", Source: "D", Moves: "host_allocs_per_txn on all four, most on ycsb_m"},
	{Name: "sim.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on all four, most on ycsb_m"},
	{Name: "sim.bytes_per_txn", Unit: "B", Better: "lower", Source: "M", Moves: "host_bytes_per_txn on all four, most on ycsb_m"},

	// Interpreter, row codec and the single-threaded baseline.
	{Name: "runtime_local.us_per_txn", Unit: "us", Better: "lower", Source: "D", Moves: "host_us_per_txn on ycsb_m: the floor the distributed runtime's cost sits on"},
	{Name: "runtime_local.allocs_per_txn", Unit: "count", Better: "lower", Source: "D", Moves: "host_allocs_per_txn on ycsb_m"},
	{Name: "interp.row_encode_ns", Unit: "ns", Better: "lower", Source: "D", Moves: "host_us_per_txn on crash_big (64 KB rows), little on ycsb_m"},
	{Name: "interp.row_decode_ns", Unit: "ns", Better: "lower", Source: "D", Moves: "host_us_per_txn on crash_big (snapshot restore)"},
	{Name: "interp.row_bytes", Unit: "B", Better: "lower", Source: "D", Moves: "virt_p50_ms on crash_big: the cost model charges per encoded byte"},
	{Name: "interp.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on ycsb_m and hot_t"},
	{Name: "interp.bytes_per_txn", Unit: "B", Better: "lower", Source: "M", Moves: "host_bytes_per_txn on crash_big"},

	// State store and snapshots.
	{Name: "state.store_encode_ms", Unit: "ms", Better: "lower", Source: "D", Moves: "host_us_per_txn on crash_big (one image per worker per snapshot)"},
	{Name: "state.store_decode_ms", Unit: "ms", Better: "lower", Source: "D", Moves: "host_us_per_txn on crash_big (restore)"},
	{Name: "snapshot.write_ms", Unit: "ms", Better: "lower", Source: "D", Moves: "host_us_per_txn and host_live_heap_mb on crash_big"},
	{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower", Source: "D", Moves: "host_us_per_txn on crash_big"},
	{Name: "snapshot.taken", Unit: "count", Better: "lower", Source: "C", Moves: "virt_outage_ms on crash_big: more snapshots, shorter replay"},
	{Name: "snapshot.retained", Unit: "count", Better: "lower", Source: "C", Moves: "host_live_heap_mb on crash_big"},
	{Name: "state.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on crash_big; near 0 on ycsb_m"},
	{Name: "state.bytes_per_txn", Unit: "B", Better: "lower", Source: "M", Moves: "host_bytes_per_txn on crash_big"},

	// Aria reserve / validate / fallback.
	{Name: "aria.validate_ns_per_txn", Unit: "ns", Better: "lower", Source: "D", Moves: "host_us_per_txn on hot_t; no change on ycsb_m"},
	{Name: "aria.fallback_ns_per_txn", Unit: "ns", Better: "lower", Source: "D", Moves: "host_us_per_txn on hot_t; no change on ycsb_m"},
	{Name: "aria.validate_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p50_ms on hot_t"},
	{Name: "aria.fallback_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p99_ms and virt_max_rate_rps on hot_t"},
	{Name: "aria.fallback_rounds_per_epoch", Unit: "count", Better: "lower", Source: "C", Moves: "virt_p99_ms on hot_t; 0 on ycsb_m"},
	{Name: "aria.fallback_commit_share", Unit: "%", Better: "lower", Source: "C", Moves: "virt_max_rate_rps on hot_t"},
	{Name: "aria.fallback_spills", Unit: "count", Better: "lower", Source: "C", Moves: "virt_p99_ms on hot_t"},
	{Name: "aria.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on hot_t"},
	{Name: "aria.bytes_per_txn", Unit: "B", Better: "lower", Source: "M", Moves: "host_bytes_per_txn on hot_t"},

	// Durable log.
	{Name: "dlog.appends_per_txn", Unit: "count", Better: "lower", Source: "C", Moves: "host_us_per_txn on ycsb_m"},
	{Name: "dlog.bytes_per_txn", Unit: "B", Better: "lower", Source: "C", Moves: "host_bytes_per_txn on xshard (manifest copied per shard)"},
	{Name: "dlog.syncs_per_commit", Unit: "count", Better: "lower", Source: "C", Moves: "virt_p50_ms on ycsb_m (group commit)"},
	{Name: "dlog.checkpoints", Unit: "count", Better: "lower", Source: "C", Moves: "virt_outage_ms on crash_big (replay length)"},
	{Name: "dlog.commit_fsync_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p50_ms on ycsb_m"},
	{Name: "dlog.sim_append_ns", Unit: "ns", Better: "lower", Source: "D", Moves: "host_us_per_txn on ycsb_m"},
	{Name: "dlog.sim_recover_ms", Unit: "ms", Better: "lower", Source: "D", Moves: "host_us_per_txn on crash_big"},
	{Name: "dlog.file_append_ns", Unit: "ns", Better: "lower", Source: "D", Moves: "no end-to-end metric yet: FileLog serves only the Live runtime (host_us_per_txn on ycsb_m once Live runs the protocol)"},
	{Name: "dlog.file_sync_us", Unit: "us", Better: "lower", Source: "D", Moves: "no end-to-end metric yet: this sandbox's fsync, not a device's (virt_p50_ms on ycsb_m once Live runs the protocol)"},
	{Name: "dlog.file_replay_ms", Unit: "ms", Better: "lower", Source: "D", Moves: "no end-to-end metric yet (virt_outage_ms on crash_big once Live runs the protocol)"},
	{Name: "dlog.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on ycsb_m"},

	// Coordinator epoch loop.
	{Name: "coordinator.ingress_queue_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p99_ms on every workload as the rate nears virt_max_rate_rps"},
	{Name: "coordinator.execute_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p50_ms on ycsb_m"},
	{Name: "coordinator.apply_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p50_ms on crash_big (whole-row writes)"},
	{Name: "coordinator.epoch_advance_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p50_ms on ycsb_m: the epoch cadence every request waits on"},
	{Name: "coordinator.txns_per_epoch", Unit: "count", Better: "higher", Source: "C", Moves: "virt_max_rate_rps on ycsb_m"},
	{Name: "coordinator.epochs_closed", Unit: "count", Better: "lower", Source: "C", Moves: "host_us_per_txn on hot_t (per-epoch overhead at a low rate)"},
	{Name: "coordinator.recoveries", Unit: "count", Better: "lower", Source: "C", Moves: "virt_outage_ms on crash_big; 0 elsewhere"},
	{Name: "coordinator.replays", Unit: "count", Better: "lower", Source: "C", Moves: "virt_outage_ms on crash_big"},
	{Name: "coordinator.binding_replays", Unit: "count", Better: "lower", Source: "C", Moves: "virt_outage_ms on crash_big"},
	{Name: "systems_stateflow.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on ycsb_m"},
	{Name: "systems_stateflow.bytes_per_txn", Unit: "B", Better: "lower", Source: "M", Moves: "host_bytes_per_txn on xshard"},

	// Sequencer and fences: 0 where Shards <= 1 deploys no sequencer.
	{Name: "sequencer.global_share", Unit: "%", Better: "lower", Source: "C", Moves: "virt_p99_ms on xshard only"},
	{Name: "sequencer.txns_per_batch", Unit: "count", Better: "higher", Source: "C", Moves: "virt_max_rate_rps on xshard only"},
	{Name: "sequencer.scoped_fences", Unit: "count", Better: "lower", Source: "C", Moves: "virt_p99_ms on xshard only"},
	{Name: "sequencer.failovers", Unit: "count", Better: "lower", Source: "C", Moves: "virt_outage_ms on xshard; 0 without a sequencer crash"},
	{Name: "sequencer.fence_wait_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p99_ms on xshard only"},
	{Name: "sequencer.global_execute_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p99_ms and host_us_per_txn on xshard only"},
	{Name: "sequencer.apply_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_p99_ms on xshard only"},
	{Name: "coordinator.fence_park_virt_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "virt_max_rate_rps on xshard only"},

	// Client edge.
	{Name: "client.retries_per_txn", Unit: "count", Better: "lower", Source: "C", Moves: "virt_max_rate_rps on crash_big (retry storm after reboot)"},
	{Name: "sysapi.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on crash_big"},

	// Replayable source.
	{Name: "queue.produce_ns", Unit: "ns", Better: "lower", Source: "D", Moves: "host_us_per_txn on ycsb_m"},
	{Name: "queue.fetch_ns", Unit: "ns", Better: "lower", Source: "D", Moves: "host_us_per_txn on crash_big (source replay inside the outage)"},

	// Set-up.
	{Name: "compiler.compile_ms", Unit: "ms", Better: "lower", Source: "B", Moves: "setup_s on ycsb_m, hot_t and xshard"},
	{Name: "setup.preload_ms", Unit: "ms", Better: "lower", Source: "B", Moves: "setup_s on crash_big"},
	{Name: "setup.checkpoint_ms", Unit: "ms", Better: "lower", Source: "B", Moves: "setup_s on crash_big"},

	// Context rows: 0 except on ycsb_m.
	{Name: "statefun.virt_p50_ms", Unit: "ms", Better: "lower", Source: "D", Moves: "no end-to-end metric: the paper's baseline beside virt_p50_ms on ycsb_m"},
	{Name: "statefun.virt_p99_ms", Unit: "ms", Better: "lower", Source: "D", Moves: "no end-to-end metric: the paper's baseline beside virt_p99_ms on ycsb_m"},
	{Name: "live.us_per_call", Unit: "us", Better: "lower", Source: "D", Moves: "no end-to-end metric until ROADMAP B: moves with runtime_local.us_per_txn beside host_us_per_txn on ycsb_m"},

	// Garbage collector: the link from bytes to time.
	{Name: "gc.cycles_per_ktxn", Unit: "count", Better: "lower", Source: "C", Moves: "host_us_per_txn on every workload, through host_bytes_per_txn"},
	{Name: "gc.pause_ms_per_ktxn", Unit: "ms", Better: "lower", Source: "C", Moves: "host_us_per_txn on crash_big"},

	// Observability and the unattributed remainder.
	{Name: "obs.trace_overhead_share", Unit: "%", Better: "lower", Source: "B", Moves: "host_us_per_txn on ycsb_m if tracing were left on"},
	{Name: "obs.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on ycsb_m"},
	{Name: "other.allocs_per_txn", Unit: "count", Better: "lower", Source: "M", Moves: "host_allocs_per_txn on every workload: what no layer above accounts for"},
}
