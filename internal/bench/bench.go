// Package bench is the experiment harness: it deploys the compiled YCSB
// entity program on simulated StateFlow and StateFun-model clusters, runs
// the paper's workloads against them, and prints the rows/series behind
// every figure of the evaluation (§4): Figure 3 (p99 latency per workload
// and key distribution at 100 RPS), Figure 4 (median/p99 latency versus
// input throughput on the mixed workload M), the system-overhead breakdown
// (state sizes 50–200 KB), and the consistency experiment contrasting the
// baseline's lost updates with StateFlow's transactional isolation.
package bench

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// Options parameterizes an experiment run.
type Options struct {
	Records      int           // dataset size (accounts)
	PayloadBytes int           // per-record payload
	Duration     time.Duration // measured (virtual) time per point
	WarmUp       time.Duration // discarded head
	Seed         int64
	Epoch        time.Duration // StateFlow batch interval
	// NoFallback disables Aria's deterministic fallback phase on the
	// StateFlow runtime (A/B benchmarking; the contention experiment
	// ignores it and always measures both modes).
	NoFallback bool
	// NoPipelining forces the serial epoch schedule on the StateFlow
	// runtime (A/B benchmarking; the dlog and contention experiments
	// ignore it and measure the pipeline dimension explicitly).
	NoPipelining bool
}

// DefaultOptions mirror the paper's scale at laptop-friendly durations.
func DefaultOptions() Options {
	return Options{
		Records:      1000,
		PayloadBytes: 1000, // YCSB default 10x100B fields
		Duration:     30 * time.Second,
		WarmUp:       3 * time.Second,
		Seed:         1,
		Epoch:        10 * time.Millisecond,
	}
}

// configure applies the options every paper-figure run honours.
func (o Options) configure(cfg *stateflow.Config) {
	cfg.EpochInterval = o.Epoch
	cfg.DisableFallback = o.NoFallback
	cfg.DisablePipelining = o.NoPipelining
}

// RunPoint is one measured configuration.
type RunPoint struct {
	System   string
	Workload string
	Dist     string
	RateRPS  float64

	Mean, P50, P99 time.Duration
	Samples        int
	Errors         int
	Aborts         int // StateFlow only: Aria conflict aborts
	Commits        int // StateFlow only
	Epochs         int // StateFlow only: batches closed
	Done           int
}

// runOne deploys one system, drives one workload point, and collects
// latency stats.
func runOne(system string, configure func(*stateflow.Config), mix ycsb.Mix, dist string, rate float64, opt Options) (RunPoint, error) {
	h, err := Deploy(Deployment{Seed: opt.Seed, System: system, Config: configure})
	if err != nil {
		return RunPoint{}, err
	}
	gen, err := h.runYCSB(mix, dist, rate, opt)
	if err != nil {
		return RunPoint{}, err
	}
	st := gen.Latency.Snapshot()
	pt := RunPoint{
		System: system, Workload: mix.Name, Dist: dist, RateRPS: rate,
		Mean: st.Mean, P50: st.P50, P99: st.P99, Samples: int(st.Count),
		Errors: gen.Errors, Done: gen.Done,
	}
	if h.SF != nil {
		for _, sh := range h.SF.Shards() {
			pt.Aborts += sh.Coordinator().Aborts
			pt.Commits += sh.Coordinator().Commits
			pt.Epochs += sh.Coordinator().EpochsClosed
		}
	}
	return pt, nil
}

// RunPointFor runs a single (system, workload, distribution, rate)
// configuration — the unit both figures are built from. Exposed for the
// testing.B benchmark harness.
func RunPointFor(system, workload, dist string, rate float64, opt Options) (RunPoint, error) {
	mix, err := ycsb.ByName(workload)
	if err != nil {
		return RunPoint{}, err
	}
	return runOne(system, opt.configure, mix, dist, rate, opt)
}

// ---------------------------------------------------------------------------
// Figure 3

// RunFig3 reproduces Figure 3: p99 latency for YCSB A, B and T under
// Zipfian and uniform key distributions at low load. StateFun skips T
// ("we did not run Statefun against transactional workloads since it
// offers no support for transactions", §4).
func RunFig3(opt Options) ([]RunPoint, error) {
	var out []RunPoint
	for _, wl := range []ycsb.Mix{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadT} {
		for _, dist := range []string{"zipfian", "uniform"} {
			for _, system := range []string{"statefun", "stateflow"} {
				if system == "statefun" && wl.Name == "T" {
					continue
				}
				pt, err := runOne(system, opt.configure, wl, dist, 100, opt)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// PrintFig3 renders the rows the figure plots.
func PrintFig3(points []RunPoint) string {
	s := fmt.Sprintf("Figure 3: YCSB latency at 100 RPS (1000 records)\n%-12s %-10s %-10s %10s %10s %8s\n",
		"workload", "dist", "system", "p99", "mean", "samples")
	for _, p := range points {
		s += fmt.Sprintf("%-12s %-10s %-10s %10s %10s %8d\n",
			p.Workload, p.Dist, p.System,
			p.P99.Round(100*time.Microsecond), p.Mean.Round(100*time.Microsecond), p.Samples)
	}
	return s
}

// ---------------------------------------------------------------------------
// Figure 4

// RunFig4 reproduces Figure 4: median and p99 latency for the mixed
// workload M while input throughput sweeps 1000..4000 RPS.
func RunFig4(opt Options, rates []float64) ([]RunPoint, error) {
	if len(rates) == 0 {
		rates = []float64{1000, 1500, 2000, 2500, 3000, 3500, 4000}
	}
	var out []RunPoint
	for _, system := range []string{"stateflow", "statefun"} {
		for _, rate := range rates {
			pt, err := runOne(system, opt.configure, ycsb.WorkloadM, "uniform", rate, opt)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// PrintFig4 renders the latency/throughput series.
func PrintFig4(points []RunPoint) string {
	s := fmt.Sprintf("Figure 4: workload M latency vs input throughput\n%-10s %10s %10s %10s %8s %8s\n",
		"system", "rate", "p50", "p99", "samples", "errors")
	for _, p := range points {
		s += fmt.Sprintf("%-10s %10.0f %10s %10s %8d %8d\n",
			p.System, p.RateRPS,
			p.P50.Round(100*time.Microsecond), p.P99.Round(100*time.Microsecond),
			p.Samples, p.Errors)
	}
	return s
}

// ---------------------------------------------------------------------------
// System overhead (§4, not depicted in the paper)

// OverheadRow is the per-component breakdown at one state size.
type OverheadRow struct {
	StateKB int
	// CPU is the workers' CPU time by component: the registry's nonzero
	// stateflow.worker.cpu.* entries, keyed by the name after that prefix.
	CPU           map[string]time.Duration
	SplitFraction float64
}

// RunOverhead reproduces the §4 system-overhead experiment: a synthetic
// workload over entities whose state size varies from 50 to 200 KB,
// measuring the duration of each runtime component per event and the share
// attributable to program transformation (function splitting).
func RunOverhead(opt Options, stateKBs []int) ([]OverheadRow, error) {
	if len(stateKBs) == 0 {
		stateKBs = []int{50, 100, 150, 200}
	}
	var out []OverheadRow
	for _, kb := range stateKBs {
		o := opt
		o.PayloadBytes = kb * 1024
		o.Records = 50
		o.WarmUp = 0
		h, err := Deploy(Deployment{Seed: o.Seed, System: "stateflow", Config: o.configure})
		if err != nil {
			return nil, err
		}
		if _, err := h.runYCSB(ycsb.WorkloadM, "uniform", 100, o); err != nil {
			return nil, err
		}

		reg := obs.NewRegistry()
		h.SF.RegisterMetrics(reg)
		row := OverheadRow{StateKB: kb, CPU: map[string]time.Duration{}}
		for name, v := range reg.Snapshot() {
			if c, ok := strings.CutPrefix(name, "stateflow.worker.cpu."); ok && v > 0 {
				row.CPU[c] = time.Duration(v)
			}
		}
		if total := cpuTotal(row.CPU); total > 0 {
			row.SplitFraction = float64(row.CPU["splitting_instrumentation"]) / float64(total)
		}
		out = append(out, row)
	}
	return out, nil
}

func cpuTotal(cpu map[string]time.Duration) (total time.Duration) {
	for _, d := range cpu {
		total += d
	}
	return total
}

// cpuTable renders a breakdown as aligned rows of component, total time and
// percentage, longest first (ties by name) — the table shape of the §4
// overhead experiment.
func cpuTable(cpu map[string]time.Duration) string {
	names := slices.SortedFunc(maps.Keys(cpu), func(a, b string) int {
		return cmp.Or(cmp.Compare(cpu[b], cpu[a]), cmp.Compare(a, b))
	})
	total := cpuTotal(cpu)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %14s %8s\n", "component", "time", "share")
	for _, c := range names {
		fmt.Fprintf(&sb, "%-28s %14s %7.2f%%\n",
			c, cpu[c].Round(time.Microsecond), 100*float64(cpu[c])/float64(total))
	}
	fmt.Fprintf(&sb, "%-28s %14s %8s\n", "total", total.Round(time.Microsecond), "100.00%")
	return sb.String()
}

// PrintOverhead renders the overhead tables.
func PrintOverhead(rows []OverheadRow) string {
	s := "System overhead: runtime component breakdown by state size\n"
	for _, r := range rows {
		s += fmt.Sprintf("\nstate size %d KB (splitting/instrumentation share: %.3f%%)\n%s",
			r.StateKB, 100*r.SplitFraction, cpuTable(r.CPU))
	}
	return s
}

// ---------------------------------------------------------------------------
// Consistency experiment

// ConsistencyResult contrasts the two systems under concurrent conflicting
// transfers.
type ConsistencyResult struct {
	System        string
	ExpectedTotal int64
	ActualTotal   int64
	LostUpdates   bool
	Aborts        int
}

// RunConsistency fires bursts of concurrent updates at a handful of hot
// accounts on both systems and checks conservation of money: the
// StateFun-model baseline (no transactions, no locking, §3) may lose
// updates; StateFlow must never.
func RunConsistency(opt Options) ([]ConsistencyResult, error) {
	const accounts = 4
	const burst = 40
	var script []sysapi.Scheduled
	for i := 0; i < burst; i++ {
		script = append(script, call(time.Millisecond+time.Duration(i)*150*time.Microsecond,
			fmt.Sprintf("t1.%d", i), ycsb.Key(i%accounts), "transfer",
			interp.IntV(5), interp.RefV("Account", ycsb.Key((i+1)%accounts))))
	}

	var out []ConsistencyResult
	for _, system := range []string{"statefun", "stateflow"} {
		h, err := Deploy(Deployment{Seed: opt.Seed, System: system, Config: opt.configure})
		if err != nil {
			return nil, err
		}
		err = h.Preload(accounts, func(i int) (string, []interp.Value) {
			return "Account", []interp.Value{interp.StrV(ycsb.Key(i)), interp.IntV(1000), interp.StrV("")}
		})
		if err != nil {
			return nil, err
		}
		h.Script("client", script)
		if err := h.Drain(30 * time.Second); err != nil {
			return nil, err
		}

		var total int64
		for i := 0; i < accounts; i++ {
			st, ok := h.Backend.EntityState("Account", ycsb.Key(i))
			if !ok {
				return nil, fmt.Errorf("bench: account %d missing", i)
			}
			total += st["balance"].I
		}
		res := ConsistencyResult{
			System:        system,
			ExpectedTotal: int64(accounts) * 1000,
			ActualTotal:   total,
			LostUpdates:   total != int64(accounts)*1000,
		}
		if h.SF != nil {
			res.Aborts = h.SF.Single().Coordinator().Aborts
		}
		out = append(out, res)
	}
	return out, nil
}

// PrintConsistency renders the consistency comparison.
func PrintConsistency(rows []ConsistencyResult) string {
	s := fmt.Sprintf("Consistency under concurrent conflicting transfers\n%-10s %14s %14s %8s %s\n",
		"system", "expected", "actual", "aborts", "verdict")
	for _, r := range rows {
		verdict := "consistent (money conserved)"
		if r.LostUpdates {
			verdict = "INCONSISTENT (lost updates)"
		}
		s += fmt.Sprintf("%-10s %14d %14d %8d %s\n",
			r.System, r.ExpectedTotal, r.ActualTotal, r.Aborts, verdict)
	}
	return s
}
