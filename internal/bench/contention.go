// The contention experiment behind the CI bench-regression gate: the
// chained-transfer worst case (t1: a0→a1, t2: a1→a2, …) measured with
// Aria's deterministic fallback phase on versus off. The headline metric
// is commits-per-batch (how much of a conflict chain one batch drains);
// the virtual client latencies quantify what the in-batch re-execution
// rounds buy over next-batch retries. Every column is a deterministic
// function of the seed, which is what lets CI compare a re-run against
// the checked-in BENCH_pr10.json field for field; what the Go code costs
// in wall-clock time is the repo benchmark's business (benchmark/).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
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
	// "chain split across ticks"; -epoch still parameterizes the dlog
	// rows bundled into the same artifact.
	contentionEpoch = 50 * time.Millisecond
)

// ContentionRow is one measured commit strategy on the chained-transfer
// workload.
type ContentionRow struct {
	Name string `json:"name"`
	// CommitsPerBatch is the drain rate of the conflict chain: committed
	// transactions per closed (non-empty) batch. The fallback's whole
	// point is moving this from ~1 to ~k.
	CommitsPerBatch float64 `json:"commits_per_batch"`
	// Virtual client latencies (deterministic given the seed).
	VirtualP50Ms float64 `json:"virtual_p50_ms"`
	VirtualP99Ms float64 `json:"virtual_p99_ms"`
	Commits      int     `json:"commits"`
	Batches      int     `json:"batches"`
	// Retried counts next-batch conflict retries (the legacy drain; 0
	// with the fallback on), MaxRetries the per-response worst case.
	Retried        int `json:"retried"`
	MaxRetries     int `json:"max_retries"`
	FallbackRounds int `json:"fallback_rounds"`
}

// RunContention measures the chained-transfer workload with the fallback
// phase on and off, plus the fallback-on point under the serial epoch
// schedule so the pipeline's effect on the contended path is tracked too.
func RunContention(opt Options) ([]ContentionRow, error) {
	prog, err := compileProgram()
	if err != nil {
		return nil, err
	}
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
		cluster := sim.New(opt.Seed)
		cfg := stateflow.DefaultConfig()
		cfg.EpochInterval = contentionEpoch
		cfg.SnapshotEvery = 10
		cfg.DisableFallback = tc.disableFallback
		cfg.DisablePipelining = tc.disablePipelining
		sys := stateflow.New(cluster, prog, cfg)

		accounts := contentionWaves * (contentionChain + 1)
		for i := 0; i < accounts; i++ {
			if err := sys.PreloadEntity("Account",
				interp.StrV(ycsb.Key(i)), interp.IntV(ycsb.InitialBalance), interp.StrV("")); err != nil {
				return nil, err
			}
		}
		var script []sysapi.Scheduled
		for w := 0; w < contentionWaves; w++ {
			base := w * (contentionChain + 1)
			at := time.Duration(w)*contentionWaveGap + time.Millisecond
			for i := 0; i < contentionChain; i++ {
				script = append(script, sysapi.Scheduled{
					At: at + time.Duration(i)*contentionSpacing,
					Req: sysapi.Request{
						Req:    fmt.Sprintf("w%dt%d", w, i),
						Target: interp.EntityRef{Class: "Account", Key: ycsb.Key(base + i)},
						Method: "transfer",
						Args:   []interp.Value{interp.IntV(5), interp.RefV("Account", ycsb.Key(base+i+1))},
						Kind:   "transfer",
					},
				})
			}
		}
		client := sysapi.NewScriptClient("client", sys, script)
		cluster.Add("client", client)
		sys.CheckpointPreloadedState()
		cluster.Start()
		cluster.RunUntil(time.Duration(contentionWaves)*contentionWaveGap + 10*time.Second)

		total := contentionWaves * contentionChain
		if client.Done != total {
			return nil, fmt.Errorf("contention (%s): %d/%d responses", tc.name, client.Done, total)
		}
		coord := sys.Coordinator()
		lat := client.Latency.Snapshot()
		row := ContentionRow{
			Name:           tc.name,
			Commits:        coord.Commits,
			Batches:        coord.EpochsClosed,
			Retried:        coord.Aborts,
			FallbackRounds: coord.FallbackRounds,
			VirtualP50Ms:   lat.P50Ms(),
			VirtualP99Ms:   lat.P99Ms(),
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

// Doc is the BENCH_pr10.json schema: the contention experiment that gates
// regressions plus the dlog (".../pipeline=on|off" rows), sharded-scaling
// and scoped-fence experiments, so one artifact carries every row
// bench-compare gates.
type Doc struct {
	Benchmark   string           `json:"benchmark"`
	Chain       int              `json:"chain"`
	Waves       int              `json:"waves"`
	Seed        int64            `json:"seed"`
	Epoch       string           `json:"epoch"`
	Contention  []ContentionRow  `json:"contention"`
	Dlog        []DlogRow        `json:"dlog"`
	Sharding    []ShardingRow    `json:"sharding,omitempty"`
	ScopedFence []ScopedFenceRow `json:"scoped_fence,omitempty"`
}

// WriteJSON writes the benchmark artifact checked in as BENCH_pr10.json
// and enforced by the CI bench-compare step.
func WriteJSON(path string, opt Options, cont []ContentionRow, dlog []DlogRow, shard []ShardingRow, scoped []ScopedFenceRow) error {
	doc := Doc{
		Benchmark:   "aria-fallback-contention",
		Chain:       contentionChain,
		Waves:       contentionWaves,
		Seed:        opt.Seed,
		Epoch:       contentionEpoch.String(),
		Contention:  cont,
		Dlog:        dlog,
		Sharding:    shard,
		ScopedFence: scoped,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadJSON loads a benchmark artifact (the bench-compare tool reads
// both the checked-in baseline and the fresh re-run through this).
func ReadJSON(path string) (Doc, error) {
	var doc Doc
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// FindContention returns the named contention row.
func (d Doc) FindContention(name string) (ContentionRow, error) {
	for _, r := range d.Contention {
		if r.Name == name {
			return r, nil
		}
	}
	return ContentionRow{}, fmt.Errorf("benchmark doc has no contention row %q", name)
}

// FindDlog returns the named dlog row.
func (d Doc) FindDlog(name string) (DlogRow, error) {
	for _, r := range d.Dlog {
		if r.Name == name {
			return r, nil
		}
	}
	return DlogRow{}, fmt.Errorf("benchmark doc has no dlog row %q", name)
}

// FindSharding returns the row measured at the given shard count.
func (d Doc) FindSharding(shards int) (ShardingRow, error) {
	for _, r := range d.Sharding {
		if r.Shards == shards {
			return r, nil
		}
	}
	return ShardingRow{}, fmt.Errorf("benchmark doc has no sharding row for %d shards", shards)
}

// FindScopedFence returns the scoped-fence row for one fence schedule.
func (d Doc) FindScopedFence(fullFences bool) (ScopedFenceRow, error) {
	for _, r := range d.ScopedFence {
		if r.FullFences == fullFences {
			return r, nil
		}
	}
	return ScopedFenceRow{}, fmt.Errorf("benchmark doc has no scoped-fence row with full_fences=%v", fullFences)
}
