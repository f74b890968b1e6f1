package bench

import (
	"strings"
	"testing"
	"time"
)

// quickOptions keeps harness tests fast: short virtual runs still produce
// hundreds of samples.
func quickOptions() Options {
	opt := DefaultOptions()
	opt.Duration = 5 * time.Second
	opt.WarmUp = 500 * time.Millisecond
	opt.Records = 200
	return opt
}

func TestRunPointForBothSystems(t *testing.T) {
	opt := quickOptions()
	sf, err := RunPointFor("stateflow", "A", "zipfian", 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	sfu, err := RunPointFor("statefun", "A", "zipfian", 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Samples < 100 || sfu.Samples < 100 {
		t.Fatalf("samples: %d / %d", sf.Samples, sfu.Samples)
	}
	// The paper's headline comparison: StateFlow wins.
	if sf.P99 >= sfu.P99 {
		t.Fatalf("stateflow p99 (%s) must beat statefun (%s)", sf.P99, sfu.P99)
	}
	if sf.Errors != 0 || sfu.Errors != 0 {
		t.Fatalf("errors: %d / %d", sf.Errors, sfu.Errors)
	}
}

func TestRunPointRejectsUnknowns(t *testing.T) {
	opt := quickOptions()
	if _, err := RunPointFor("nosuch", "A", "zipfian", 100, opt); err == nil {
		t.Fatal("unknown system")
	}
	if _, err := RunPointFor("stateflow", "Z", "zipfian", 100, opt); err == nil {
		t.Fatal("unknown workload")
	}
	if _, err := RunPointFor("stateflow", "A", "pareto", 100, opt); err == nil {
		t.Fatal("unknown distribution")
	}
}

func TestStatefunFlatAcrossWorkloads(t *testing.T) {
	// Figure 3 claim (1): the baseline's latency is workload- and
	// distribution-independent.
	opt := quickOptions()
	a, err := RunPointFor("statefun", "A", "zipfian", 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPointFor("statefun", "B", "uniform", 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(a.Mean) / float64(b.Mean)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("statefun not flat: A-zipf %s vs B-unif %s", a.Mean, b.Mean)
	}
}

func TestTransactionalWorkloadCostsMore(t *testing.T) {
	// Figure 3 claim (3): T > A on StateFlow, same order of magnitude.
	opt := quickOptions()
	a, err := RunPointFor("stateflow", "A", "uniform", 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := RunPointFor("stateflow", "T", "uniform", 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Mean <= a.Mean {
		t.Fatalf("T (%s) should cost more than A (%s)", tt.Mean, a.Mean)
	}
	if tt.P99 > 10*a.P99 {
		t.Fatalf("T overhead should be modest: T p99 %s vs A p99 %s", tt.P99, a.P99)
	}
}

func TestOverheadHarness(t *testing.T) {
	opt := quickOptions()
	rows, err := RunOverhead(opt, []int{50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].SplitFraction == 0 {
		t.Fatal("no breakdown recorded")
	}
	if rows[0].SplitFraction >= 0.01 {
		t.Fatalf("splitting share %.4f must be <1%% (§4)", rows[0].SplitFraction)
	}
	out := PrintOverhead(rows)
	if !strings.Contains(out, "state size 50 KB") {
		t.Fatalf("print: %s", out)
	}
}

func TestConsistencyHarness(t *testing.T) {
	opt := quickOptions()
	rows, err := RunConsistency(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.System == "stateflow" && r.LostUpdates {
			t.Fatal("stateflow must conserve money")
		}
	}
	out := PrintConsistency(rows)
	if !strings.Contains(out, "stateflow") || !strings.Contains(out, "statefun") {
		t.Fatalf("print: %s", out)
	}
}

func TestEpochAblationHarness(t *testing.T) {
	opt := quickOptions()
	rows, err := RunEpochAblation(opt, []time.Duration{2 * time.Millisecond, 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Longer epochs mean higher commit-wait latency.
	if rows[1].P50 <= rows[0].P50 {
		t.Fatalf("epoch ablation shape: %s vs %s", rows[0].P50, rows[1].P50)
	}
	if !strings.Contains(PrintAblation("t", rows), "epoch") {
		t.Fatal("print")
	}
}

func TestPrintersIncludeHeaders(t *testing.T) {
	pts := []RunPoint{{System: "stateflow", Workload: "A", Dist: "zipfian",
		RateRPS: 100, P99: time.Millisecond, Mean: time.Millisecond, Samples: 10}}
	if !strings.Contains(PrintFig3(pts), "Figure 3") {
		t.Fatal("fig3 header")
	}
	if !strings.Contains(PrintFig4(pts), "Figure 4") {
		t.Fatal("fig4 header")
	}
	for _, p := range []struct{ out, header, row string }{
		{PrintContention([]ContentionRow{{Name: "contention/x", CommitsPerBatch: 32}}), "commits/batch", "contention/x"},
		{PrintDlog([]DlogRow{{Name: "dlog/x", LogSyncs: 7}}), "syncs", "dlog/x"},
		{PrintSharding([]ShardingRow{{Name: "one", Shards: 1, TxnPerVirtualSec: 100}, {Name: "four", Shards: 4, TxnPerVirtualSec: 250}}),
			"txn/virt-sec", "(2.50x)"},
		{PrintScopedFences([]ScopedFenceRow{{Name: "scoped", UntouchedTxnPerVirtualSec: 300}, {Name: "full", FullFences: true, UntouchedTxnPerVirtualSec: 200}}),
			"untouched/sec", "(1.50x vs full)"},
	} {
		if !strings.Contains(p.out, p.header) || !strings.Contains(p.out, p.row) {
			t.Fatalf("want header %q and %q in:\n%s", p.header, p.row, p.out)
		}
	}
}
