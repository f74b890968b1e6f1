package bench

import (
	"fmt"
	"strings"

	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// DlogRow is one measured coordinator-hot-path configuration: the same
// workload point under one epoch schedule, with what it asked of the
// durable log.
type DlogRow struct {
	Name string
	// Virtual latencies observed by the clients (the simulated cost of
	// group-commit fsyncs and epoch-record syncs).
	VirtualP50Ms float64
	VirtualP99Ms float64
	Commits      int
	// Dlog activity.
	LogAppends     int
	LogSyncs       int
	LogCheckpoints int
}

// RunDlog measures the coordinator hot path under both epoch schedules:
// YCSB A (update-heavy — every transaction crosses the egress and
// therefore the durable log) at a rate that keeps the coordinator busy,
// with periodic snapshots so checkpoint compaction is part of the
// measured path. Pipelined (two epochs in flight, adjacent epochs sharing
// one group-commit fsync) versus serial: the fsync merge shows up as a
// log_syncs-per-commit gap between the two rows.
func RunDlog(opt Options) ([]DlogRow, error) {
	cases := []struct {
		name              string
		disablePipelining bool
	}{
		{"coordinator-hotpath/dlog=on/pipeline=on", false},
		{"coordinator-hotpath/dlog=on/pipeline=off", true},
	}
	var out []DlogRow
	for _, tc := range cases {
		h, err := Deploy(Deployment{Seed: opt.Seed, System: "stateflow", Config: func(cfg *stateflow.Config) {
			cfg.EpochInterval = opt.Epoch
			cfg.SnapshotEvery = 10
			cfg.DisablePipelining = tc.disablePipelining
			cfg.DisableFallback = opt.NoFallback
		}})
		if err != nil {
			return nil, err
		}
		gen, err := h.runYCSB(ycsb.WorkloadA, "uniform", 2000, opt)
		if err != nil {
			return nil, err
		}

		lat := gen.Latency.Snapshot()
		st := h.SF.Single().Dlog.Stats()
		out = append(out, DlogRow{
			Name:           tc.name,
			VirtualP50Ms:   lat.P50Ms(),
			VirtualP99Ms:   lat.P99Ms(),
			Commits:        h.SF.Single().Coordinator().Commits,
			LogAppends:     st.Appends,
			LogSyncs:       st.Syncs,
			LogCheckpoints: st.Checkpoints,
		})
	}
	return out, nil
}

// PrintDlog renders the comparison as a table.
func PrintDlog(rows []DlogRow) string {
	var b strings.Builder
	b.WriteString("Coordinator hot path: epoch schedule (YCSB A, uniform, 2000 RPS)\n")
	fmt.Fprintf(&b, "%-42s %12s %12s %9s %9s %9s\n",
		"config", "p50(virt)", "p99(virt)", "commits", "appends", "syncs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-42s %11.2fms %11.2fms %9d %9d %9d\n",
			r.Name, r.VirtualP50Ms, r.VirtualP99Ms, r.Commits, r.LogAppends, r.LogSyncs)
	}
	return b.String()
}
