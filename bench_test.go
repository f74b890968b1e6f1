// Benchmarks regenerating the paper's evaluation (§4). Each figure/table
// has a bench family; latency results are attached as custom metrics
// (p50-ms, p99-ms, ...) so `go test -bench` output carries the same
// numbers cmd/stateflow-bench prints. Durations are shortened relative to
// the CLI harness to keep bench runs quick; shapes are unaffected.
//
//	Figure 3  -> BenchmarkFigure3/...
//	Figure 4  -> BenchmarkFigure4/...
//	§4 system-overhead table -> BenchmarkOverhead/...
//	§2.4 compile-time splitting -> BenchmarkCompile/...
package stateflow_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/bench"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/txn/aria"
	"statefulentities.dev/stateflow/internal/workload/tpcc"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

const figure1 = `
@entity
class Item:
    def __init__(self, item_id: str, price: int):
        self.item_id: str = item_id
        self.stock: int = 0
        self.price: int = price

    def __key__(self) -> str:
        return self.item_id

    def get_price(self) -> int:
        return self.price

    def update_stock(self, amount: int) -> bool:
        self.stock += amount
        return self.stock >= 0

@entity
class User:
    def __init__(self, username: str):
        self.username: str = username
        self.balance: int = 100

    def __key__(self) -> str:
        return self.username

    @transactional
    def buy_item(self, amount: int, item: Item) -> bool:
        total_price: int = amount * item.get_price()
        if self.balance < total_price:
            return False
        available: bool = item.update_stock(0 - amount)
        if not available:
            item.update_stock(amount)
            return False
        self.balance -= total_price
        return True
`

func benchOptions() bench.Options {
	opt := bench.DefaultOptions()
	opt.Duration = 10 * time.Second // virtual
	opt.WarmUp = 1 * time.Second
	return opt
}

// BenchmarkFigure3 reproduces Figure 3: p99 latency per workload and key
// distribution at 100 RPS, per system.
func BenchmarkFigure3(b *testing.B) {
	for _, wl := range []string{"A", "B", "T"} {
		for _, dist := range []string{"zipfian", "uniform"} {
			for _, system := range []string{"statefun", "stateflow"} {
				if system == "statefun" && wl == "T" {
					continue // no transaction support (§4)
				}
				name := fmt.Sprintf("%s-%s/%s", wl, dist, system)
				b.Run(name, func(b *testing.B) {
					opt := benchOptions()
					var p99, mean time.Duration
					for i := 0; i < b.N; i++ {
						opt.Seed = int64(i + 1)
						pts, err := bench.RunPointFor(system, wl, dist, 100, opt)
						if err != nil {
							b.Fatal(err)
						}
						p99, mean = pts.P99, pts.Mean
					}
					b.ReportMetric(float64(p99)/1e6, "p99-ms")
					b.ReportMetric(float64(mean)/1e6, "mean-ms")
				})
			}
		}
	}
}

// BenchmarkFigure4 reproduces Figure 4: p50/p99 latency versus input
// throughput on workload M.
func BenchmarkFigure4(b *testing.B) {
	for _, system := range []string{"stateflow", "statefun"} {
		for _, rate := range []float64{1000, 2000, 3000, 4000} {
			b.Run(fmt.Sprintf("%s/%drps", system, int(rate)), func(b *testing.B) {
				opt := benchOptions()
				var p50, p99 time.Duration
				for i := 0; i < b.N; i++ {
					opt.Seed = int64(i + 1)
					pt, err := bench.RunPointFor(system, "M", "uniform", rate, opt)
					if err != nil {
						b.Fatal(err)
					}
					p50, p99 = pt.P50, pt.P99
				}
				b.ReportMetric(float64(p50)/1e6, "p50-ms")
				b.ReportMetric(float64(p99)/1e6, "p99-ms")
			})
		}
	}
}

// BenchmarkOverhead reproduces the §4 system-overhead experiment: the
// share of total runtime attributable to function-splitting
// instrumentation, per state size. The paper's claim: under 1%.
func BenchmarkOverhead(b *testing.B) {
	for _, kb := range []int{50, 100, 150, 200} {
		b.Run(fmt.Sprintf("state-%dKB", kb), func(b *testing.B) {
			opt := benchOptions()
			opt.Duration = 5 * time.Second
			var frac float64
			for i := 0; i < b.N; i++ {
				opt.Seed = int64(i + 1)
				rows, err := bench.RunOverhead(opt, []int{kb})
				if err != nil {
					b.Fatal(err)
				}
				frac = rows[0].SplitFraction
			}
			b.ReportMetric(frac*100, "split-%")
		})
	}
}

// BenchmarkAblationEpoch sweeps the bound on the Aria batch interval near
// Fig. 4's knee: small bounds cost coordination, large ones let a batch
// grow and its members wait for it to close (§5's epoch-interval
// discussion).
func BenchmarkAblationEpoch(b *testing.B) {
	for _, epoch := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		b.Run(epoch.String(), func(b *testing.B) {
			opt := benchOptions()
			var row bench.AblationRow
			for i := 0; i < b.N; i++ {
				opt.Seed = int64(i + 1)
				rows, err := bench.RunEpochAblation(opt, []time.Duration{epoch})
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(float64(row.P99)/1e6, "p99-ms")
			b.ReportMetric(float64(row.P50)/1e6, "p50-ms")
		})
	}
}

// BenchmarkAblationWorkers sweeps the StateFlow worker count under load.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, w := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("%dworkers", w), func(b *testing.B) {
			opt := benchOptions()
			var row bench.AblationRow
			for i := 0; i < b.N; i++ {
				opt.Seed = int64(i + 1)
				rows, err := bench.RunWorkerAblation(opt, []int{w})
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(float64(row.P99)/1e6, "p99-ms")
		})
	}
}

// BenchmarkCompile measures the compiler pipeline (§2.4 splitting is
// compile-time work; the runtime overhead is measured by
// BenchmarkOverhead).
func BenchmarkCompile(b *testing.B) {
	cases := map[string]string{
		"figure1": figure1,
		"ycsb":    ycsb.Program(),
		"tpcc":    tpcc.Program(),
	}
	for name, src := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stateflow.Compile(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalRuntime measures raw dataflow execution on the Local
// runtime: a simple single-entity call versus the split multi-entity
// buy_item chain.
func BenchmarkLocalRuntime(b *testing.B) {
	prog := stateflow.MustCompile(figure1)
	newRT := func(b *testing.B) *stateflow.Local {
		rt := stateflow.NewLocal(prog)
		if _, err := rt.Create("Item", stateflow.Str("apple"), stateflow.Int(1)); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Create("User", stateflow.Str("alice")); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Invoke("Item", "apple", "update_stock", stateflow.Int(1<<40)); err != nil {
			b.Fatal(err)
		}
		return rt
	}
	b.Run("simple-get_price", func(b *testing.B) {
		rt := newRT(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Invoke("Item", "apple", "get_price"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("split-buy_item", func(b *testing.B) {
		rt := newRT(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := rt.Invoke("User", "alice", "buy_item",
				stateflow.Int(0), stateflow.Ref("Item", "apple"))
			if err != nil || res.Err != "" {
				b.Fatalf("%v %s", err, res.Err)
			}
		}
	})
}

// BenchmarkStateCodec measures the state serialization the runtimes charge
// their cost models for.
func BenchmarkStateCodec(b *testing.B) {
	for _, kb := range []int{1, 50, 200} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			st := interp.MapState{
				"owner":   interp.StrV("user000001"),
				"balance": interp.IntV(100),
				"payload": interp.StrV(ycsb.Payload(kb * 1024)),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := interp.NewEncoder()
				e.State(st)
				if _, err := interp.NewDecoder(e.Bytes()).State(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZipfian measures the YCSB key chooser.
func BenchmarkZipfian(b *testing.B) {
	z := ycsb.NewZipfian(1000, 0.99, true)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next(r)
	}
}

// BenchmarkAriaValidate measures batch validation at various batch sizes.
func BenchmarkAriaValidate(b *testing.B) {
	for _, size := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			order := make([]aria.TID, size)
			sets := map[aria.TID]*aria.RWSet{}
			for i := range order {
				tid := aria.TID(i + 1)
				order[i] = tid
				rw := aria.NewRWSet()
				rw.Read(aria.ResKey{Class: 0, Key: fmt.Sprint(i % 64)}, aria.SlotBit(i%4))
				rw.Write(aria.ResKey{Class: 0, Key: fmt.Sprint((i + 1) % 64)}, aria.SlotBit(i%4))
				sets[tid] = rw
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = aria.Validate(order, sets)
			}
		})
	}
}
