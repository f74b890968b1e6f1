// Ablations over StateFlow's design choices, beyond what the paper's
// figures report:
//
//   - Epoch interval: the bound on Aria's batch length trades commit
//     latency against coordination overhead per transaction (§3/§5 "Epoch
//     intervals cannot be too small because they would incur a high
//     overhead").
//   - Worker count: how the bundled execution/state/messaging deployment
//     scales (§4's resource-utilization discussion).
//   - Contention (zipfian skew) under the transactional workload: abort
//     and retry behaviour of the deterministic protocol.
package bench

import (
	"fmt"
	"time"

	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// AblationRow is one measured ablation point: the swept parameter's value
// and the StateFlow run point measured at it.
type AblationRow struct {
	Param, Value string
	RunPoint
}

// ablationPoint runs one StateFlow configuration — the defaults as edited
// by configure, not the options' schedule flags — and labels the row.
func ablationPoint(param, value string, configure func(*stateflow.Config), mix ycsb.Mix, dist string, rate float64, opt Options) (AblationRow, error) {
	pt, err := runOne("stateflow", configure, mix, dist, rate, opt)
	return AblationRow{Param: param, Value: value, RunPoint: pt}, err
}

// RunEpochAblation sweeps the Aria batch interval on workload M near Fig.
// 4's knee. The interval only bounds a batch, which closes itself once its
// members have finished: at a light load the bound never binds.
func RunEpochAblation(opt Options, epochs []time.Duration) ([]AblationRow, error) {
	if len(epochs) == 0 {
		epochs = []time.Duration{
			2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
			20 * time.Millisecond, 50 * time.Millisecond,
		}
	}
	var out []AblationRow
	for _, e := range epochs {
		row, err := ablationPoint("epoch", e.String(),
			func(cfg *stateflow.Config) { cfg.EpochInterval = e }, ycsb.WorkloadM, "uniform", 3500, opt)
		if err != nil {
			return nil, err
		}
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
		row, err := ablationPoint("workers", fmt.Sprint(w),
			func(cfg *stateflow.Config) { cfg.Workers = w }, ycsb.WorkloadM, "uniform", 2000, opt)
		if err != nil {
			return nil, err
		}
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
		row, err := ablationPoint("records", fmt.Sprint(r),
			func(cfg *stateflow.Config) { cfg.EpochInterval = opt.Epoch }, ycsb.WorkloadT, "zipfian", 200, o)
		if err != nil {
			return nil, err
		}
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
