package ycsb

import (
	"fmt"
	"math/rand"
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
)

func TestProgramCompiles(t *testing.T) {
	if _, err := compiler.Compile(Program()); err != nil {
		t.Fatalf("YCSB program must compile: %v", err)
	}
}

func TestMixesSumTo100(t *testing.T) {
	for _, m := range []Mix{WorkloadA, WorkloadB, WorkloadT, WorkloadM} {
		if m.Read+m.Update+m.Transfer != 100 {
			t.Errorf("workload %s sums to %d", m.Name, m.Read+m.Update+m.Transfer)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"A", "b", "T", "m"} {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%s): %v", n, err)
		}
	}
	if _, err := ByName("zzz"); err == nil {
		t.Error("expected error")
	}
}

func TestUniformCoversRange(t *testing.T) {
	u := Uniform{N: 10}
	r := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		k := u.Next(r)
		if k < 0 || k >= 10 {
			t.Fatalf("out of range: %d", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Fatalf("coverage: %d/10", len(seen))
	}
}

func TestZipfianSkew(t *testing.T) {
	n := 1000
	z := NewZipfian(n, 0.99, false)
	r := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	draws := 200_000
	for i := 0; i < draws; i++ {
		counts[z.Next(r)]++
	}
	// Item 0 must be by far the most popular (true Zipf head ~ 1/zeta(n)).
	frac0 := float64(counts[0]) / float64(draws)
	if frac0 < 0.08 || frac0 > 0.20 {
		t.Fatalf("head frequency: %.4f", frac0)
	}
	if counts[0] < counts[1] || counts[1] < counts[10] {
		t.Fatalf("not monotone: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	// The tail must still be reachable.
	tail := 0
	for i := n / 2; i < n; i++ {
		tail += counts[i]
	}
	if tail == 0 {
		t.Fatal("tail never drawn")
	}
}

func TestScrambledZipfianSpreadsHead(t *testing.T) {
	n := 1000
	z := NewZipfian(n, 0.99, true)
	r := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < 100_000; i++ {
		counts[z.Next(r)]++
	}
	// Scrambling moves the hot key away from index 0 (with overwhelming
	// probability) but keeps the same skew: one key dominates.
	maxIdx, maxC := 0, 0
	for i, c := range counts {
		if c > maxC {
			maxIdx, maxC = i, c
		}
	}
	if float64(maxC)/100_000 < 0.08 {
		t.Fatalf("scrambled zipfian lost its skew: max %.4f", float64(maxC)/100_000)
	}
	_ = maxIdx
}

func TestZipfianDeterministicGivenSeed(t *testing.T) {
	z := NewZipfian(100, 0.99, true)
	a := rand.New(rand.NewSource(9))
	b := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if z.Next(a) != z.Next(b) {
			t.Fatal("non-deterministic")
		}
	}
}

func TestChooserByName(t *testing.T) {
	for n, want := range map[string]string{"uniform": "ycsb.Uniform", "zipfian": "*ycsb.Zipfian"} {
		c, err := ChooserByName(n, 50)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%T", c); got != want {
			t.Fatalf("%s: %s, want %s", n, got, want)
		}
	}
	if _, err := ChooserByName("pareto", 50); err == nil {
		t.Fatal("expected error")
	}
}

func TestGeneratorMixProportions(t *testing.T) {
	g := NewGenerator(WorkloadM, Uniform{N: 100}, 100, 3, "q")
	counts := map[string]int{}
	n := 20_000
	for i := 0; i < n; i++ {
		counts[g.Next(i).Kind]++
	}
	check := func(kind string, pct int) {
		got := float64(counts[kind]) / float64(n) * 100
		if got < float64(pct)-2 || got > float64(pct)+2 {
			t.Errorf("%s: got %.1f%%, want ~%d%%", kind, got, pct)
		}
	}
	check("read", 45)
	check("update", 45)
	check("transfer", 10)
}

func TestGeneratorTransferDistinctAccounts(t *testing.T) {
	g := NewGenerator(WorkloadT, Uniform{N: 5}, 5, 4, "t")
	for i := 0; i < 500; i++ {
		req := g.Next(i)
		if req.Kind != "transfer" {
			t.Fatalf("kind: %s", req.Kind)
		}
		to := req.Args[1].R.Key
		if to == req.Target.Key {
			t.Fatal("transfer to self")
		}
	}
}

func TestGeneratorUniqueIDs(t *testing.T) {
	g := NewGenerator(WorkloadA, Uniform{N: 10}, 10, 5, "a")
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := g.Next(i).Req
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestLoader(t *testing.T) {
	load := Loader(3, 100)
	class, args := load(0)
	if class != "Account" || len(args) != 3 {
		t.Fatalf("loader: %s %d args", class, len(args))
	}
	if len(args[2].Str()) != 100 {
		t.Fatalf("payload size: %d", len(args[2].Str()))
	}
	if args[0].Str() != "user000000" {
		t.Fatalf("key: %s", args[0].Str())
	}
}

// Key is formatted by hand; it must stay byte-identical to the
// fmt.Sprintf("user%06d") it replaced — preloaded datasets, request
// targets and the benchmark's reference model all derive keys from it.
func TestKeyMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 999, 99_999, 100_000, 999_999, 1_000_000, 12_345_678, 1 << 40, -1, -12_345, -999_999, -1_000_000} {
		if got, want := Key(i), fmt.Sprintf("user%06d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Key(1_234_567) }); allocs > 1 {
		t.Errorf("Key allocates %.0f objects, want only the string", allocs)
	}
}
