// Command stateflow-bench regenerates the paper's evaluation (§4) on the
// deterministic cluster simulation:
//
//	-exp fig3         Figure 3: p99 latency, YCSB A/B/T x {zipfian, uniform} at 100 RPS
//	-exp fig4         Figure 4: p50/p99 latency vs input throughput, workload M
//	-exp overhead     §4 system overhead: per-component breakdown, state 50-200 KB
//	-exp consistency  lost updates on the baseline vs StateFlow transactions
//	-exp ablation-epoch | ablation-workers | ablation-contention
//	-exp all          everything above (default)
//	-exp contention | dlog | sharding | scoped
//	                  the A/B tables: each schedule against its reference
//	                  (internal/bench/gates_test.go holds the wins in go test)
//
// Absolute numbers come from a calibrated simulation, not the authors'
// testbed; the shapes (who wins, by what factor, where the knee falls) are
// the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"statefulentities.dev/stateflow/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig3 | fig4 | overhead | consistency | ablation-epoch | ablation-workers | ablation-contention | dlog | contention | sharding | scoped | all")
	duration := flag.Duration("duration", 30*time.Second, "measured virtual time per point")
	warmup := flag.Duration("warmup", 3*time.Second, "virtual warm-up discarded from stats")
	records := flag.Int("records", 1000, "YCSB dataset size")
	seed := flag.Int64("seed", 1, "simulation seed")
	epoch := flag.Duration("epoch", 10*time.Millisecond, "StateFlow batch (epoch) interval")
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
			fmt.Print(bench.PrintFig3(must(bench.RunFig3(opt))))
		case "fig4":
			fmt.Print(bench.PrintFig4(must(bench.RunFig4(opt, nil))))
		case "overhead":
			fmt.Print(bench.PrintOverhead(must(bench.RunOverhead(opt, nil))))
		case "consistency":
			fmt.Print(bench.PrintConsistency(must(bench.RunConsistency(opt))))
		case "ablation-epoch":
			fmt.Print(bench.PrintAblation("Ablation: Aria epoch interval, an upper bound on a batch (workload M, 3500 RPS)", must(bench.RunEpochAblation(opt, nil))))
		case "ablation-workers":
			fmt.Print(bench.PrintAblation("Ablation: worker count (workload M, 2000 RPS)", must(bench.RunWorkerAblation(opt, nil))))
		case "ablation-contention":
			fmt.Print(bench.PrintAblation("Ablation: contention via dataset size (workload T, zipfian, 200 RPS)", must(bench.RunContentionAblation(opt, nil))))
		case "dlog":
			fmt.Print(bench.PrintDlog(must(bench.RunDlog(opt))))
		case "sharding":
			fmt.Print(bench.PrintSharding(must(bench.RunSharding(opt))))
		case "scoped":
			fmt.Print(bench.PrintScopedFences(must(bench.RunScopedFences(opt))))
		case "contention":
			fmt.Print(bench.PrintContention(must(bench.RunContention(opt))))
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

// must unwraps an experiment's rows, exiting on its error.
func must[R any](rows R, err error) R {
	check(err)
	return rows
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stateflow-bench:", err)
		os.Exit(1)
	}
}
