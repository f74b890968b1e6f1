// Command stateflow-bench regenerates the paper's evaluation (§4) on the
// deterministic cluster simulation:
//
//	-exp fig3         Figure 3: p99 latency, YCSB A/B/T x {zipfian, uniform} at 100 RPS
//	-exp fig4         Figure 4: p50/p99 latency vs input throughput, workload M
//	-exp overhead     §4 system overhead: per-component breakdown, state 50-200 KB
//	-exp consistency  lost updates on the baseline vs StateFlow transactions
//	-exp all          everything (default)
//
// Absolute numbers come from a calibrated simulation, not the authors'
// testbed; the shapes (who wins, by what factor, where the knee falls) are
// the reproduction target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"statefulentities.dev/stateflow/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig3 | fig4 | overhead | consistency | dlog | contention | sharding | scoped | all")
	duration := flag.Duration("duration", 30*time.Second, "measured virtual time per point")
	warmup := flag.Duration("warmup", 3*time.Second, "virtual warm-up discarded from stats")
	records := flag.Int("records", 1000, "YCSB dataset size")
	seed := flag.Int64("seed", 1, "simulation seed")
	epoch := flag.Duration("epoch", 10*time.Millisecond, "StateFlow batch (epoch) interval")
	benchJSON := flag.String("bench-json", "", "with -exp contention: also write the rows, bundled with the dlog, sharding and scoped-fence rows, as a JSON benchmark artifact to this path (the BENCH_pr10.json shape CI enforces)")
	noFallback := flag.Bool("no-fallback", false, "disable Aria's deterministic fallback phase on the StateFlow runtime (the contention experiment always measures both modes)")
	noPipelining := flag.Bool("no-pipelining", false, "force the serial epoch schedule on the StateFlow runtime (the dlog and contention experiments always measure both schedules)")
	flag.Parse()

	opt := bench.DefaultOptions()
	opt.Duration = *duration
	opt.WarmUp = *warmup
	opt.Records = *records
	opt.Seed = *seed
	opt.Epoch = *epoch
	opt.NoFallback = *noFallback
	opt.NoPipelining = *noPipelining

	run := func(name string) {
		start := time.Now()
		switch name {
		case "fig3":
			pts, err := bench.RunFig3(opt)
			check(err)
			fmt.Print(bench.PrintFig3(pts))
		case "fig4":
			pts, err := bench.RunFig4(opt, nil)
			check(err)
			fmt.Print(bench.PrintFig4(pts))
		case "overhead":
			rows, err := bench.RunOverhead(opt, nil)
			check(err)
			fmt.Print(bench.PrintOverhead(rows))
		case "consistency":
			rows, err := bench.RunConsistency(opt)
			check(err)
			fmt.Print(bench.PrintConsistency(rows))
		case "ablation-epoch":
			rows, err := bench.RunEpochAblation(opt, nil)
			check(err)
			fmt.Print(bench.PrintAblation("Ablation: Aria epoch interval (workload T, zipfian, 100 RPS)", rows))
		case "ablation-workers":
			rows, err := bench.RunWorkerAblation(opt, nil)
			check(err)
			fmt.Print(bench.PrintAblation("Ablation: worker count (workload M, 2000 RPS)", rows))
		case "ablation-contention":
			rows, err := bench.RunContentionAblation(opt, nil)
			check(err)
			fmt.Print(bench.PrintAblation("Ablation: contention via dataset size (workload T, zipfian, 200 RPS)", rows))
		case "dlog":
			rows, err := bench.RunDlog(opt)
			check(err)
			fmt.Print(bench.PrintDlog(rows))
		case "sharding":
			rows, err := bench.RunSharding(opt)
			check(err)
			fmt.Print(bench.PrintSharding(rows))
		case "scoped":
			rows, err := bench.RunScopedFences(opt)
			check(err)
			fmt.Print(bench.PrintScopedFences(rows))
		case "contention":
			rows, err := bench.RunContention(opt)
			check(err)
			fmt.Print(bench.PrintContention(rows))
			if *benchJSON != "" {
				// The artifact carries the dlog, sharded-scaling and
				// scoped-fence experiments too: one BENCH_*.json per PR
				// accumulates the whole perf trajectory (see
				// cmd/bench-compare).
				dlogRows, err := bench.RunDlog(opt)
				check(err)
				fmt.Print(bench.PrintDlog(dlogRows))
				shardRows, err := bench.RunSharding(opt)
				check(err)
				fmt.Print(bench.PrintSharding(shardRows))
				scopedRows, err := bench.RunScopedFences(opt)
				check(err)
				fmt.Print(bench.PrintScopedFences(scopedRows))
				check(bench.WriteJSON(*benchJSON, opt, rows, dlogRows, shardRows, scopedRows))
				fmt.Printf("wrote %s\n", *benchJSON)
			}
		default:
			fmt.Fprintf(os.Stderr, "stateflow-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("(%s completed in %s real time)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, name := range []string{"fig3", "fig4", "overhead", "consistency",
			"ablation-epoch", "ablation-workers", "ablation-contention"} {
			run(name)
		}
		return
	}
	run(*exp)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stateflow-bench:", err)
		os.Exit(1)
	}
}
