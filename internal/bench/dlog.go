package bench

import (
	"fmt"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// DlogRow is one measured coordinator-hot-path configuration: the same
// workload point under one epoch schedule, with what it asked of the
// durable log.
type DlogRow struct {
	Name string `json:"name"`
	// Virtual latencies observed by the clients (the simulated cost of
	// group-commit fsyncs and epoch-record syncs).
	VirtualP50Ms float64 `json:"virtual_p50_ms"`
	VirtualP99Ms float64 `json:"virtual_p99_ms"`
	Commits      int     `json:"commits"`
	// Dlog activity.
	LogAppends     int `json:"log_appends"`
	LogSyncs       int `json:"log_syncs"`
	LogCheckpoints int `json:"log_checkpoints"`
}

// RunDlog measures the coordinator hot path under both epoch schedules:
// YCSB A (update-heavy — every transaction crosses the egress and
// therefore the durable log) at a rate that keeps the coordinator busy,
// with periodic snapshots so checkpoint compaction is part of the
// measured path. Pipelined (two epochs in flight, adjacent epochs sharing
// one group-commit fsync) versus serial: the fsync merge shows up as a
// log_syncs-per-commit gap between the two rows.
func RunDlog(opt Options) ([]DlogRow, error) {
	prog, err := compileProgram()
	if err != nil {
		return nil, err
	}
	mix, err := ycsb.ByName("A")
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name              string
		disablePipelining bool
	}{
		{"coordinator-hotpath/dlog=on/pipeline=on", false},
		{"coordinator-hotpath/dlog=on/pipeline=off", true},
	}
	var out []DlogRow
	for _, tc := range cases {
		cluster := sim.New(opt.Seed)
		cfg := stateflow.DefaultConfig()
		cfg.EpochInterval = opt.Epoch
		cfg.SnapshotEvery = 10
		cfg.DisablePipelining = tc.disablePipelining
		cfg.DisableFallback = opt.NoFallback
		sys := stateflow.New(cluster, prog, cfg)
		load := ycsb.Loader(opt.Records, opt.PayloadBytes)
		for i := 0; i < opt.Records; i++ {
			class, args := load(i)
			if err := sys.PreloadEntity(class, args...); err != nil {
				return nil, err
			}
		}
		chooser, err := ycsb.ChooserByName("uniform", opt.Records)
		if err != nil {
			return nil, err
		}
		wgen := ycsb.NewGenerator(mix, chooser, opt.Records, opt.Seed+17, "q")
		gen := sysapi.NewGenerator("client", sys, 2000, opt.Duration, opt.WarmUp, wgen.Next)
		cluster.Add("client", gen)
		sys.CheckpointPreloadedState()
		cluster.Start()
		cluster.RunUntil(opt.Duration + 10*time.Second)

		lat := gen.Latency.Snapshot()
		st := sys.Dlog.Stats()
		out = append(out, DlogRow{
			Name:           tc.name,
			VirtualP50Ms:   lat.P50Ms(),
			VirtualP99Ms:   lat.P99Ms(),
			Commits:        sys.Coordinator().Commits,
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
