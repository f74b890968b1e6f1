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
	"fmt"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/statefun"
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

// compileProgram compiles the YCSB entity program once per run.
func compileProgram() (*ir.Program, error) {
	return compiler.Compile(ycsb.Program())
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
	Done           int
}

// runOne deploys one system, drives one workload point, and collects
// latency stats.
func runOne(system string, mix ycsb.Mix, dist string, rate float64, opt Options) (RunPoint, error) {
	prog, err := compileProgram()
	if err != nil {
		return RunPoint{}, err
	}
	cluster := sim.New(opt.Seed)

	var sys sysapi.Backend
	var sfSys *stateflow.System
	switch system {
	case "stateflow":
		cfg := stateflow.DefaultConfig()
		cfg.EpochInterval = opt.Epoch
		cfg.DisableFallback = opt.NoFallback
		cfg.DisablePipelining = opt.NoPipelining
		sfSys = stateflow.New(cluster, prog, cfg).Single()
		sys = sfSys
	case "statefun":
		sys = statefun.New(cluster, prog, statefun.DefaultConfig())
	default:
		return RunPoint{}, fmt.Errorf("bench: unknown system %q", system)
	}

	// Preload the dataset.
	load := ycsb.Loader(opt.Records, opt.PayloadBytes)
	for i := 0; i < opt.Records; i++ {
		class, args := load(i)
		if err := sys.PreloadEntity(class, args...); err != nil {
			return RunPoint{}, err
		}
	}

	chooser, err := ycsb.ChooserByName(dist, opt.Records)
	if err != nil {
		return RunPoint{}, err
	}
	wgen := ycsb.NewGenerator(mix, chooser, opt.Records, opt.Seed+17, "q")
	gen := sysapi.NewGenerator("client", sys, rate, opt.Duration, opt.WarmUp, wgen.Next)
	cluster.Add("client", gen)
	cluster.Start()
	cluster.RunUntil(opt.Duration + 10*time.Second) // grace to drain

	st := gen.Latency.Snapshot()
	pt := RunPoint{
		System: system, Workload: mix.Name, Dist: dist, RateRPS: rate,
		Mean: st.Mean, P50: st.P50, P99: st.P99, Samples: int(st.Count),
		Errors: gen.Errors, Done: gen.Done,
	}
	if sfSys != nil {
		pt.Aborts = sfSys.Coordinator().Aborts
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
	return runOne(system, mix, dist, rate, opt)
}

// ---------------------------------------------------------------------------
// Figure 3

// Fig3Config lists the systems, workloads and distributions of Figure 3.
type Fig3Config struct {
	Rate float64 // the paper uses 100 RPS
}

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
				pt, err := runOne(system, wl, dist, 100, opt)
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
			pt, err := runOne(system, ycsb.WorkloadM, "uniform", rate, opt)
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
	StateKB       int
	Breakdown     *obs.Breakdown
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
		prog, err := compileProgram()
		if err != nil {
			return nil, err
		}
		cluster := sim.New(o.Seed)
		cfg := stateflow.DefaultConfig()
		cfg.EpochInterval = o.Epoch
		sys := stateflow.New(cluster, prog, cfg)
		load := ycsb.Loader(o.Records, o.PayloadBytes)
		for i := 0; i < o.Records; i++ {
			class, args := load(i)
			if err := sys.PreloadEntity(class, args...); err != nil {
				return nil, err
			}
		}
		chooser := ycsb.Uniform{N: o.Records}
		wgen := ycsb.NewGenerator(ycsb.WorkloadM, chooser, o.Records, o.Seed+17, "q")
		gen := sysapi.NewGenerator("client", sys, 100, o.Duration, 0, wgen.Next)
		cluster.Add("client", gen)
		cluster.Start()
		cluster.RunUntil(o.Duration + 5*time.Second)

		agg := obs.NewBreakdown()
		for _, w := range sys.Workers() {
			agg.Merge(w.Breakdown)
		}
		out = append(out, OverheadRow{
			StateKB:       kb,
			Breakdown:     agg,
			SplitFraction: agg.Fraction(obs.SplittingInstrumentation),
		})
	}
	return out, nil
}

// PrintOverhead renders the overhead tables.
func PrintOverhead(rows []OverheadRow) string {
	s := "System overhead: runtime component breakdown by state size\n"
	for _, r := range rows {
		s += fmt.Sprintf("\nstate size %d KB (splitting/instrumentation share: %.3f%%)\n%s",
			r.StateKB, 100*r.SplitFraction, r.Breakdown.Table())
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
	prog, err := compileProgram()
	if err != nil {
		return nil, err
	}
	const accounts = 4
	const burst = 40
	script := func() []sysapi.Scheduled {
		reqs := sysapi.NewBuilder("t")
		var s []sysapi.Scheduled
		for i := 0; i < burst; i++ {
			from := ycsb.Key(i % accounts)
			to := ycsb.Key((i + 1) % accounts)
			s = append(s, sysapi.Scheduled{
				At: time.Millisecond + time.Duration(i)*150*time.Microsecond,
				Req: reqs.At(i, interp.EntityRef{Class: "Account", Key: from}, "transfer",
					[]interp.Value{interp.IntV(5), interp.RefV("Account", to)}, "transfer"),
			})
		}
		return s
	}

	var out []ConsistencyResult
	for _, system := range []string{"statefun", "stateflow"} {
		cluster := sim.New(opt.Seed)
		var sys sysapi.Backend
		var sf *stateflow.System
		if system == "stateflow" {
			cfg := stateflow.DefaultConfig()
			cfg.EpochInterval = opt.Epoch
			sf = stateflow.New(cluster, prog, cfg).Single()
			sys = sf
		} else {
			sys = statefun.New(cluster, prog, statefun.DefaultConfig())
		}
		for i := 0; i < accounts; i++ {
			args := []interp.Value{interp.StrV(ycsb.Key(i)), interp.IntV(1000), interp.StrV("")}
			if err := sys.PreloadEntity("Account", args...); err != nil {
				return nil, err
			}
		}
		client := sysapi.NewScriptClient("client", sys, script())
		cluster.Add("client", client)
		cluster.Start()
		cluster.RunUntil(30 * time.Second)

		var total int64
		for i := 0; i < accounts; i++ {
			st, ok := sys.EntityState("Account", ycsb.Key(i))
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
		if sf != nil {
			res.Aborts = sf.Coordinator().Aborts
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
