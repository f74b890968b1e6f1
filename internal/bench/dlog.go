package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// DlogRow is one measured coordinator-hot-path configuration: the same
// workload point with the durable log on versus off, so the WAL's cost
// (real CPU per committed transaction and virtual commit latency) is a
// number instead of a guess.
type DlogRow struct {
	Name string `json:"name"`
	// NsPerOp is real (wall-clock) nanoseconds of simulation compute per
	// committed transaction — the coordinator hot path including record
	// encoding, appends and checkpoint compaction when the log is on.
	NsPerOp int64 `json:"ns_per_op"`
	// Virtual latencies observed by the clients (the simulated cost of
	// group-commit fsyncs and epoch-record syncs).
	VirtualP50Ms float64 `json:"virtual_p50_ms"`
	VirtualP99Ms float64 `json:"virtual_p99_ms"`
	Commits      int     `json:"commits"`
	WallMs       float64 `json:"wall_ms"`
	// Dlog activity (zero when off).
	LogAppends     int `json:"log_appends"`
	LogSyncs       int `json:"log_syncs"`
	LogCheckpoints int `json:"log_checkpoints"`
}

// RunDlog measures the coordinator hot path across the durability and
// epoch-schedule dimensions: YCSB A (update-heavy — every transaction
// crosses the egress and therefore the WAL) at a rate that keeps the
// coordinator busy, with periodic snapshots so checkpoint compaction is
// part of the measured path. With the log on, both epoch schedules are
// measured — pipelined (two epochs in flight, adjacent epochs sharing
// one group-commit fsync) and serial — so the fsync merge shows up as a
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
		disableDlog       bool
		disablePipelining bool
	}{
		{"coordinator-hotpath/dlog=on/pipeline=on", false, false},
		{"coordinator-hotpath/dlog=on/pipeline=off", false, true},
		{"coordinator-hotpath/dlog=off", true, false},
	}
	var out []DlogRow
	for _, tc := range cases {
		cluster := sim.New(opt.Seed)
		cfg := stateflow.DefaultConfig()
		cfg.EpochInterval = opt.Epoch
		cfg.SnapshotEvery = 10
		cfg.DisableDlog = tc.disableDlog
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
		start := time.Now()
		cluster.RunUntil(opt.Duration + 10*time.Second)
		wall := time.Since(start)

		commits := sys.Coordinator().Commits
		lat := gen.Latency.Snapshot()
		row := DlogRow{
			Name:         tc.name,
			VirtualP50Ms: lat.P50Ms(),
			VirtualP99Ms: lat.P99Ms(),
			Commits:      commits,
			WallMs:       float64(wall) / float64(time.Millisecond),
		}
		if commits > 0 {
			row.NsPerOp = wall.Nanoseconds() / int64(commits)
		}
		if sys.Dlog != nil {
			st := sys.Dlog.Stats()
			row.LogAppends, row.LogSyncs, row.LogCheckpoints = st.Appends, st.Syncs, st.Checkpoints
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintDlog renders the comparison as a table.
func PrintDlog(rows []DlogRow) string {
	var b strings.Builder
	b.WriteString("Coordinator hot path: dlog x epoch schedule (YCSB A, uniform, 2000 RPS)\n")
	fmt.Fprintf(&b, "%-36s %12s %12s %12s %9s %9s %9s\n",
		"config", "ns/op(real)", "p50(virt)", "p99(virt)", "commits", "appends", "syncs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %12d %11.2fms %11.2fms %9d %9d %9d\n",
			r.Name, r.NsPerOp, r.VirtualP50Ms, r.VirtualP99Ms, r.Commits, r.LogAppends, r.LogSyncs)
	}
	return b.String()
}

// WriteDlogJSON writes the rows as the benchmark artifact (BENCH_pr4.json
// in CI), so the perf trajectory of the coordinator hot path is tracked
// as data.
func WriteDlogJSON(path string, opt Options, rows []DlogRow) error {
	doc := struct {
		Benchmark string    `json:"benchmark"`
		Unit      string    `json:"unit"`
		Duration  string    `json:"virtual_duration"`
		Records   int       `json:"records"`
		Seed      int64     `json:"seed"`
		Rows      []DlogRow `json:"rows"`
	}{
		Benchmark: "coordinator-hotpath-dlog",
		Unit:      "ns/op",
		Duration:  opt.Duration.String(),
		Records:   opt.Records,
		Seed:      opt.Seed,
		Rows:      rows,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
