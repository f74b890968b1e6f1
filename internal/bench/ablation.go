// Ablations over StateFlow's design choices, beyond what the paper's
// figures report:
//
//   - Epoch interval: Aria's batch length trades commit latency against
//     coordination overhead per transaction (§3/§5 "Epoch intervals cannot
//     be too small because they would incur a high overhead").
//   - Worker count: how the bundled execution/state/messaging deployment
//     scales (§4's resource-utilization discussion).
//   - Contention (zipfian skew) under the transactional workload: abort
//     and retry behaviour of the deterministic protocol.
package bench

import (
	"fmt"
	"time"

	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// AblationRow is one measured ablation point.
type AblationRow struct {
	Param   string
	Value   string
	P50     time.Duration
	P99     time.Duration
	Aborts  int
	Commits int
	Errors  int
}

// runStateFlowPoint runs one StateFlow configuration and collects stats.
func runStateFlowPoint(cfg stateflow.Config, mix ycsb.Mix, dist string, rate float64, opt Options) (AblationRow, error) {
	prog, err := compileProgram()
	if err != nil {
		return AblationRow{}, err
	}
	cluster := sim.New(opt.Seed)
	sys := stateflow.New(cluster, prog, cfg)
	load := ycsb.Loader(opt.Records, opt.PayloadBytes)
	for i := 0; i < opt.Records; i++ {
		class, args := load(i)
		if err := sys.PreloadEntity(class, args...); err != nil {
			return AblationRow{}, err
		}
	}
	chooser, err := ycsb.ChooserByName(dist, opt.Records)
	if err != nil {
		return AblationRow{}, err
	}
	wgen := ycsb.NewGenerator(mix, chooser, opt.Records, opt.Seed+17, "q")
	gen := sysapi.NewGenerator("client", sys, rate, opt.Duration, opt.WarmUp, wgen.Next)
	cluster.Add("client", gen)
	cluster.Start()
	cluster.RunUntil(opt.Duration + 10*time.Second)
	st := gen.Latency.Snapshot()
	return AblationRow{
		P50:     st.P50,
		P99:     st.P99,
		Aborts:  sys.Coordinator().Aborts,
		Commits: sys.Coordinator().Commits,
		Errors:  gen.Errors,
	}, nil
}

// RunEpochAblation sweeps the Aria batch interval on workload T.
func RunEpochAblation(opt Options, epochs []time.Duration) ([]AblationRow, error) {
	if len(epochs) == 0 {
		epochs = []time.Duration{
			2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
			20 * time.Millisecond, 50 * time.Millisecond,
		}
	}
	var out []AblationRow
	for _, e := range epochs {
		cfg := stateflow.DefaultConfig()
		cfg.EpochInterval = e
		row, err := runStateFlowPoint(cfg, ycsb.WorkloadT, "zipfian", 100, opt)
		if err != nil {
			return nil, err
		}
		row.Param, row.Value = "epoch", e.String()
		out = append(out, row)
	}
	return out, nil
}

// RunWorkerAblation sweeps the worker count on workload M at a demanding
// rate.
func RunWorkerAblation(opt Options, workers []int) ([]AblationRow, error) {
	if len(workers) == 0 {
		// A single worker is far below the 2000 RPS demand and its queue
		// diverges, so the sweep starts at 2.
		workers = []int{2, 5, 10}
	}
	var out []AblationRow
	for _, w := range workers {
		cfg := stateflow.DefaultConfig()
		cfg.Workers = w
		row, err := runStateFlowPoint(cfg, ycsb.WorkloadM, "uniform", 2000, opt)
		if err != nil {
			return nil, err
		}
		row.Param, row.Value = "workers", fmt.Sprint(w)
		out = append(out, row)
	}
	return out, nil
}

// RunContentionAblation sweeps dataset size (smaller dataset = hotter
// keys) on the transactional workload, exposing Aria's abort/retry curve.
func RunContentionAblation(opt Options, records []int) ([]AblationRow, error) {
	if len(records) == 0 {
		records = []int{10, 100, 1000}
	}
	var out []AblationRow
	for _, r := range records {
		o := opt
		o.Records = r
		cfg := stateflow.DefaultConfig()
		cfg.EpochInterval = opt.Epoch
		row, err := runStateFlowPoint(cfg, ycsb.WorkloadT, "zipfian", 200, o)
		if err != nil {
			return nil, err
		}
		row.Param, row.Value = "records", fmt.Sprint(r)
		out = append(out, row)
	}
	return out, nil
}

// PrintAblation renders ablation rows.
func PrintAblation(title string, rows []AblationRow) string {
	s := fmt.Sprintf("%s\n%-10s %-10s %10s %10s %9s %9s %7s\n",
		title, "param", "value", "p50", "p99", "commits", "aborts", "errors")
	for _, r := range rows {
		s += fmt.Sprintf("%-10s %-10s %10s %10s %9d %9d %7d\n",
			r.Param, r.Value,
			r.P50.Round(100*time.Microsecond), r.P99.Round(100*time.Microsecond),
			r.Commits, r.Aborts, r.Errors)
	}
	return s
}
