// The contention experiment: the chained-transfer worst case (t1: a0→a1,
// t2: a1→a2, …) measured with Aria's deterministic fallback phase on
// versus off. The headline metric is commits-per-batch (how much of a
// conflict chain one batch drains); the virtual client latencies quantify
// what the in-batch re-execution buys over next-batch retries. Every
// column is a deterministic function of the seed, which is what lets
// gates_test.go hold the comparison in tier-1 with fixed floors; what the
// Go code costs in wall-clock time is the repo benchmark's business
// (benchmark/).
package bench

import (
	"fmt"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// Contention experiment shape: waves of chained transfers, each wave one
// pure conflict chain over its own account range.
const (
	contentionChain = 32 // transfers per chain (k)
	contentionWaves = 8  // sequential waves, disjoint account ranges
	// contentionSpacing orders arrivals within a wave wider than the
	// client-link jitter, so TID order equals chain order and the batch
	// is the worst case.
	contentionSpacing = time.Millisecond
	// contentionWaveGap leaves each wave room to drain fully even in the
	// one-commit-per-batch legacy mode before the next begins.
	contentionWaveGap = 3 * time.Second
	// contentionEpoch is wide enough to absorb a whole spaced chain into
	// one batch — the pure worst case the fallback is built for. The
	// experiment pins it (rather than inheriting -epoch) so the headline
	// commits-per-batch number means "chain drained per batch", not
	// "chain split across ticks".
	contentionEpoch = 50 * time.Millisecond
)

// ContentionRow is one measured commit strategy on the chained-transfer
// workload.
type ContentionRow struct {
	Name string
	// CommitsPerBatch is the drain rate of the conflict chain: committed
	// transactions per closed (non-empty) batch. The fallback's whole
	// point is moving this from ~1 to ~k.
	CommitsPerBatch float64
	// Virtual client latencies (deterministic given the seed).
	VirtualP50Ms float64
	VirtualP99Ms float64
	Batches      int
	// Retried counts next-batch conflict retries (the legacy drain; 0
	// with the fallback on), MaxRetries the per-response worst case.
	Retried    int
	MaxRetries int
}

// RunContention measures the chained-transfer workload with the fallback
// phase on and off, plus the fallback-on point under the serial epoch
// schedule so the pipeline's effect on the contended path is tracked too.
func RunContention(opt Options) ([]ContentionRow, error) {
	cases := []struct {
		name              string
		disableFallback   bool
		disablePipelining bool
	}{
		{"contention/fallback=on", false, false},
		{"contention/fallback=off", true, false},
		{"contention/fallback=on/pipeline=off", false, true},
	}
	var out []ContentionRow
	for _, tc := range cases {
		h, err := Deploy(Deployment{Seed: opt.Seed, System: "stateflow", Config: func(cfg *stateflow.Config) {
			cfg.EpochInterval = contentionEpoch
			cfg.SnapshotEvery = 10
			cfg.DisableFallback = tc.disableFallback
			cfg.DisablePipelining = tc.disablePipelining
		}})
		if err != nil {
			return nil, err
		}
		accounts := contentionWaves * (contentionChain + 1)
		if err := h.Preload(accounts, ycsb.Loader(accounts, 0)); err != nil {
			return nil, err
		}
		var script []sysapi.Scheduled
		for w := 0; w < contentionWaves; w++ {
			base := w * (contentionChain + 1)
			at := time.Duration(w)*contentionWaveGap + time.Millisecond
			for i := 0; i < contentionChain; i++ {
				script = append(script, call(at+time.Duration(i)*contentionSpacing,
					fmt.Sprintf("w%dt%d", w, i), ycsb.Key(base+i), "transfer",
					interp.IntV(5), interp.RefV("Account", ycsb.Key(base+i+1))))
			}
		}
		client := h.Script("client", script)
		if err := h.Drain(time.Duration(contentionWaves)*contentionWaveGap + 10*time.Second); err != nil {
			return nil, fmt.Errorf("contention (%s): %w", tc.name, err)
		}

		coord := h.SF.Single().Coordinator()
		lat := client.Latency.Snapshot()
		row := ContentionRow{
			Name:         tc.name,
			Batches:      coord.EpochsClosed,
			Retried:      coord.Aborts,
			VirtualP50Ms: lat.P50Ms(),
			VirtualP99Ms: lat.P99Ms(),
		}
		for _, r := range client.Responses {
			if r.Retries > row.MaxRetries {
				row.MaxRetries = r.Retries
			}
		}
		if coord.EpochsClosed > 0 {
			row.CommitsPerBatch = float64(coord.Commits) / float64(coord.EpochsClosed)
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintContention renders the comparison as a table.
func PrintContention(rows []ContentionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Contention: chained transfers (k=%d, %d waves), Aria fallback on vs. off\n",
		contentionChain, contentionWaves)
	fmt.Fprintf(&b, "%-24s %15s %12s %12s %9s %9s %9s\n",
		"config", "commits/batch", "p50(virt)", "p99(virt)", "batches", "retried", "maxretry")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %15.2f %11.2fms %11.2fms %9d %9d %9d\n",
			r.Name, r.CommitsPerBatch, r.VirtualP50Ms, r.VirtualP99Ms,
			r.Batches, r.Retried, r.MaxRetries)
	}
	return b.String()
}
