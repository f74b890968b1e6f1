// Command benchmark is the repository's benchmark: it deploys the compiled
// YCSB entity program on the simulated StateFlow runtime, drives four
// workloads with an open-loop Poisson generator, checks every slice
// against a reference computation and reports nine end-to-end metrics per
// workload, or (with -trace 1) the per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// outDir is where traces and profiles go unless a flag names a file: the
// build directory of the checkout the command runs in, which the
// repository's .gitignore lists.
const outDir = ".bench_build/benchmark-out"

func main() {
	var (
		name       = flag.String("workload", "", "run only this workload (default: all four)")
		seed       = flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds    = flag.Float64("seconds", runSeconds, "host seconds one workload's untraced run measures for")
		trace      = flag.Int("trace", 0, "1: the traced run, reporting the per-layer metrics instead of the end-to-end ones")
		slices     = flag.Int("slices", 0, "run exactly this many measured slices (one stream each, up to the workload's streams) instead of filling -seconds")
		aa         = flag.Int("aa", 0, "A/A self-check: run the whole benchmark this many times and compare")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run (needs -workload); \"auto\" picks a file under "+outDir)
		contract   = flag.Bool("contract", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
		memprofile = flag.String("memprofile", "", "write an allocation profile of the run (needs -workload); \"auto\" picks a file under "+outDir)
	)
	flag.Parse()
	// One thread runs the simulator, so a second P only lets the collector
	// run beside it on a core the box shares with other tenants; pinned to
	// one, host time is process CPU time and repeats far better (README).
	runtime.GOMAXPROCS(1)
	if *contract {
		printContract(os.Stdout)
		return
	}
	if err := run(*name, *seed, *seconds, *trace, *slices, *aa, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, slices, aa int, cpuprofile, memprofile string) error {
	selected, err := selectWorkloads(name)
	if err != nil {
		return err
	}
	if (cpuprofile != "" || memprofile != "") && len(selected) != 1 {
		return fmt.Errorf("-cpuprofile and -memprofile need one -workload")
	}
	if aa > 0 {
		return selfCheck(selected, seed, seconds, slices, aa)
	}
	stop, err := startProfiles(selected[0].Name, cpuprofile, memprofile)
	if err != nil {
		return err
	}
	ok := true
	for _, w := range selected {
		var rep report
		if trace == 1 {
			lr, err := runTraced(w, seed, filepath.Join(outDir, "trace"))
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			lr.print(os.Stdout)
			rep = lr.report()
		} else {
			b := budget{Deadline: time.Now().Add(time.Duration(seconds * float64(time.Second))), Slices: slices}
			res, err := runWorkload(w, seed, b, os.Stderr)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			res.print(os.Stdout, w)
			rep = res.report()
		}
		ok = ok && rep.Correct
		// The result line: last on standard output when one workload runs.
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if err := stop(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("correctness oracle failed")
	}
	return nil
}

// runSeconds is the -seconds the driver passes: BENCHMARK.json's
// run_seconds.
const runSeconds = 20

// printContract renders BENCHMARK.json from the tables in metrics.go and
// workloads.go, so the file cannot drift from what the program emits (the
// smoke test compares them).
func printContract(out io.Writer) {
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, decl{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, decl{m.Name, m.Unit, m.Better, nil})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc) // writing to standard output
}

func selectWorkloads(name string) ([]*workload, error) {
	var out []*workload
	for i := range workloads {
		if name == "" || workloads[i].Name == name {
			out = append(out, &workloads[i])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}

// report is the result line the benchmark contract asks for.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toReport(defs []metric, values map[string]float64, correct bool, attempted, failed int) report {
	rep := report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		rep.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return rep
}

func (r *result) report() report {
	return toReport(endToEnd, r.Metrics, r.Correct(), r.Attempted, r.Failed)
}

// print renders the untraced run for a reader: every metric by name with
// its unit and sample count, the ladder probes and any oracle finding.
func (r *result) print(out io.Writer, w *workload) {
	fmt.Fprintf(out, "\n== %s: %s\n", w.Name, w.Why)
	fmt.Fprintf(out, "   open loop, Poisson arrivals at %.0f req/s for %s virtual, %d streams; %d requests attempted, %d failed\n",
		w.RefRPS, w.Window, len(r.Streams), r.Attempted, r.Failed)
	samples := map[string]string{
		"setup_s":             fmt.Sprintf("interquartile mean of %d set-ups, at nominal machine speed", r.Setups),
		"virt_p50_ms":         fmt.Sprintf("%d requests of %d streams", r.LatencySamples, len(r.Streams)),
		"virt_p99_ms":         fmt.Sprintf("%d requests, %d beyond", r.LatencySamples, r.LatencySamples/100),
		"virt_max_rate_rps":   fmt.Sprintf("%d probes on %d..%d step %d", len(r.Probes), w.LadderLo, w.LadderHi, w.LadderStep),
		"virt_outage_ms":      fmt.Sprintf("mean of %d streams", len(r.Streams)),
		"host_us_per_txn":     fmt.Sprintf("interquartile mean of %d slices, at nominal machine speed", r.HostSlices),
		"host_allocs_per_txn": fmt.Sprintf("interquartile mean of %d slices", r.HostSlices),
		"host_bytes_per_txn":  fmt.Sprintf("interquartile mean of %d slices", r.HostSlices),
		"host_live_heap_mb":   fmt.Sprintf("interquartile mean of %d slices", r.HostSlices),
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "   %-22s %14.4f %-5s  (%s)\n", m.Name, r.Metrics[m.Name], m.Unit, samples[m.Name])
	}
	for _, p := range r.Probes {
		switch {
		case p.Aborted:
			fmt.Fprintf(out, "   probe %5d req/s: fails (stopped early: over 1%% of requests already later than the limit)\n", p.Rate)
		case p.Failed > 0:
			fmt.Fprintf(out, "   probe %5d req/s: fails (%d requests failed)\n", p.Rate, p.Failed)
		default:
			verdict := "fails"
			if p.Pass {
				verdict = "passes"
			}
			fmt.Fprintf(out, "   probe %5d req/s: p99 %.2f ms, final-fifth p99 %.2f ms: %s\n", p.Rate, ms(p.P99), ms(p.TailP99), verdict)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "   ORACLE: %s\n", p)
	}
}

// startProfiles starts the requested profiles and returns the function
// that finishes them.
func startProfiles(workload, cpuprofile, memprofile string) (func() error, error) {
	path := func(p, kind string) (string, error) {
		if p != "auto" {
			return p, nil
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return "", err
		}
		return filepath.Join(outDir, workload+"."+kind+".pprof"), nil
	}
	var cpu *os.File
	if cpuprofile != "" {
		p, err := path(cpuprofile, "cpu")
		if err != nil {
			return nil, err
		}
		if cpu, err = os.Create(p); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memprofile == "" {
			return nil
		}
		p, err := path(memprofile, "mem")
		if err != nil {
			return err
		}
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// selfCheck is the A/A mode: the whole benchmark rounds times in one
// process, alternating the workload order, then per workload and metric
// the spread (max-min)/median beside its bound. It fails when a spread
// exceeds its bound.
func selfCheck(selected []*workload, seed int64, seconds float64, slices, rounds int) error {
	if rounds < 2 {
		return fmt.Errorf("-aa needs at least 2 rounds")
	}
	values := map[string]map[string][]float64{}
	for round := 0; round < rounds; round++ {
		order := append([]*workload(nil), selected...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			b := budget{Deadline: time.Now().Add(time.Duration(seconds * float64(time.Second))), Slices: slices}
			res, err := runWorkload(w, seed, b, os.Stderr)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.Correct() {
				res.print(os.Stdout, w)
				return fmt.Errorf("%s: correctness oracle failed", w.Name)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				values[w.Name][k] = append(values[w.Name][k], v)
			}
		}
	}
	fmt.Printf("A/A: %d rounds, seed %d\n%-10s %-22s %14s %9s %7s\n", rounds, seed, "workload", "metric", "median", "spread", "bound")
	over := 0
	for _, w := range selected {
		for _, m := range endToEnd {
			xs := append([]float64(nil), values[w.Name][m.Name]...)
			sort.Float64s(xs)
			med := median(xs)
			spread := (xs[len(xs)-1] - xs[0]) / med
			flag := ""
			if spread > m.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-10s %-22s %14.4f %8.2f%% %6.0f%%%s\n", w.Name, m.Name, med, 100*spread, 100*m.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metrics spread beyond their bound", over)
	}
	return nil
}
