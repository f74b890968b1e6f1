package bench

import (
	"testing"
	"time"
)

// The six A/B gates: what the fallback chain, the epoch pipeline, the
// sharded topology and footprint-scoped fences each buy over their
// reference schedule (DisableFallback, DisablePipelining, one shard,
// FullFences), measured in virtual time and therefore exact per seed. Each
// floor is the claimed win, or today's reading with 15 % of slack where
// that is the tighter of the two; the reading is beside it. A PR that moves
// a reading past its floor on purpose moves the constant in the same diff.
const (
	// 1. The fallback drains a k-transfer conflict chain in one batch.
	minCommitsPerBatch = 32.0 // today 32.00: 256 commits in 8 batches
	// 2. Fallback on / off client latency ratio on that chain. The p50
	// ceiling was 0.110 (0.0956 + 15 % when the gates were written) until
	// batches began closing as soon as their members finish: the
	// reference's one-commit batches stopped waiting out the 50 ms epoch
	// timer (p50 889.61 → 380.49 ms) while the fallback side, one batch per
	// chain either way, gained less (61.95 → 47.20 ms), so the ratio rose
	// 0.0696 → 0.1241. The fallback claims only to beat next-batch retries
	// (a ratio below 1), so today's reading + 15 % is the tighter bound.
	maxFallbackP50Ratio = 0.143  // today 0.1241 (47.20 / 380.49 ms)
	maxFallbackP99Ratio = 0.0703 // today 0.0330 (57.60 / 1744.31 ms)
	// 3. The fallback changes when a transaction commits, never whether.
	contentionCommits = contentionWaves * contentionChain // 256
	// 4. Pipelined epochs share group-commit fsyncs. The merge floor is the
	// binding one of three: as an on/off syncs-per-commit ratio it reads
	// <= 0.667, inside both "today's 0.596 + 15 % = 0.685" and "< 1".
	minSyncMerge    = 1.5  // serial / pipelined syncs per commit, today 1.68x (2180/5167 vs 1275/5073)
	maxPipelinedP50 = 1.15 // x the serial p50; today 3.53 vs 3.58 ms
	// 5. Four coordinator groups against one on the sharded mix.
	minShardScaling = 2.5 // today 3.77x (14,898 / 3,954 txn per virtual second)
	// 6. Untouched-shard throughput, scoped fences against fence-everything.
	minScopedWin = 1.05 // today 1.34x (6,593 / 4,908 updates per virtual second)
)

// gateOptions are the parameters the floors were read at: seed 1, 10 ms
// epoch, 1,000 records, 5 s measured after 1 s of warm-up.
func gateOptions() Options {
	opt := DefaultOptions()
	opt.Duration, opt.WarmUp = 5*time.Second, time.Second
	return opt
}

func TestGateFallback(t *testing.T) {
	rows, err := RunContention(gateOptions())
	if err != nil {
		t.Fatal(err)
	}
	on, off := rows[0], rows[1]
	if on.Name != "contention/fallback=on" || off.Name != "contention/fallback=off" {
		t.Fatalf("rows: %q, %q", on.Name, off.Name)
	}
	if on.CommitsPerBatch < minCommitsPerBatch {
		t.Errorf("commits per batch %.2f, floor %.2f: the fallback no longer drains the chain in-batch",
			on.CommitsPerBatch, minCommitsPerBatch)
	}
	for _, m := range []struct {
		name             string
		on, off, ceiling float64
	}{
		{"p50", on.VirtualP50Ms, off.VirtualP50Ms, maxFallbackP50Ratio},
		{"p99", on.VirtualP99Ms, off.VirtualP99Ms, maxFallbackP99Ratio},
	} {
		if m.off <= 0 {
			t.Errorf("%s: degenerate fallback-off latency %.3f ms", m.name, m.off)
		} else if ratio := m.on / m.off; ratio > m.ceiling {
			t.Errorf("%s fallback on/off latency ratio %.4f, ceiling %.4f", m.name, ratio, m.ceiling)
		}
	}
	if on.Commits != contentionCommits || off.Commits != contentionCommits {
		t.Errorf("commits on/off %d/%d, want %d in both modes", on.Commits, off.Commits, contentionCommits)
	}
}

func TestGatePipelinedFsyncMerge(t *testing.T) {
	rows, err := RunDlog(gateOptions())
	if err != nil {
		t.Fatal(err)
	}
	pipe, serial := rows[0], rows[1]
	if pipe.Name != "coordinator-hotpath/dlog=on/pipeline=on" || serial.Name != "coordinator-hotpath/dlog=on/pipeline=off" {
		t.Fatalf("rows: %q, %q", pipe.Name, serial.Name)
	}
	if pipe.LogSyncs == 0 || pipe.Commits == 0 || serial.LogSyncs == 0 || serial.Commits == 0 {
		t.Fatalf("degenerate sync counts: pipelined %d/%d, serial %d/%d syncs/commits",
			pipe.LogSyncs, pipe.Commits, serial.LogSyncs, serial.Commits)
	}
	merge := (float64(serial.LogSyncs) / float64(serial.Commits)) / (float64(pipe.LogSyncs) / float64(pipe.Commits))
	if merge < minSyncMerge {
		t.Errorf("the pipelined schedule needs %.2fx fewer syncs per commit than the serial one, floor %.1fx", merge, minSyncMerge)
	}
	if pipe.VirtualP50Ms > maxPipelinedP50*serial.VirtualP50Ms {
		t.Errorf("pipelined p50 %.3f ms, ceiling %.2f x the serial %.3f ms", pipe.VirtualP50Ms, maxPipelinedP50, serial.VirtualP50Ms)
	}
}

func TestGateShardScaling(t *testing.T) {
	rows, err := RunSharding(gateOptions())
	if err != nil {
		t.Fatal(err)
	}
	one, four := rows[0], rows[2]
	if one.Shards != 1 || four.Shards != 4 {
		t.Fatalf("rows: %d and %d shards", one.Shards, four.Shards)
	}
	if four.GlobalTxns == 0 {
		t.Error("the 4-shard mix routed no global transaction: the cross-shard tail went unexercised")
	}
	if one.TxnPerVirtualSec <= 0 {
		t.Fatalf("degenerate 1-shard throughput %.0f", one.TxnPerVirtualSec)
	}
	if scale := four.TxnPerVirtualSec / one.TxnPerVirtualSec; scale < minShardScaling {
		t.Errorf("4 shards run %.2fx the 1-shard throughput, floor %.1fx", scale, minShardScaling)
	}
}

func TestGateScopedFences(t *testing.T) {
	rows, err := RunScopedFences(gateOptions())
	if err != nil {
		t.Fatal(err)
	}
	scoped, full := rows[0], rows[1]
	if scoped.FullFences || !full.FullFences {
		t.Fatalf("rows: %q, %q", scoped.Name, full.Name)
	}
	if scoped.ScopedFences == 0 {
		t.Error("the scoped run recorded no scoped fence: every global batch fenced the whole cluster, the gate is vacuous")
	}
	if full.ScopedFences != 0 {
		t.Errorf("the fence-everything reference recorded %d scoped fences", full.ScopedFences)
	}
	if full.UntouchedTxnPerVirtualSec <= 0 {
		t.Fatalf("degenerate full-fence untouched throughput %.0f", full.UntouchedTxnPerVirtualSec)
	}
	if win := scoped.UntouchedTxnPerVirtualSec / full.UntouchedTxnPerVirtualSec; win < minScopedWin {
		t.Errorf("untouched shards run %.2fx the fence-everything throughput, floor %.3fx", win, minScopedWin)
	}
}
