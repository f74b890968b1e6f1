package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
)

const src = `
@entity
class Counter:
    def __init__(self, name: str):
        self.name: str = name
        self.n: int = 0

    def __key__(self) -> str:
        return self.name

    def bump(self, by: int) -> int:
        self.n += by
        return self.n

    def get(self) -> int:
        return self.n

@entity
class Driver:
    def __init__(self, name: str):
        self.name: str = name

    def __key__(self) -> str:
        return self.name

    def fanout(self, counters: list[Counter], by: int) -> int:
        total: int = 0
        for c in counters:
            total += c.bump(by)
        return total
`

func newRT(t *testing.T, workers int) *Runtime {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(prog, Config{Workers: workers})
	t.Cleanup(rt.Close)
	return rt
}

func TestCreateInvoke(t *testing.T) {
	rt := newRT(t, 4)
	ref, err := rt.Create("Counter", interp.StrV("c1"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Key != "c1" {
		t.Fatalf("ref: %v", ref)
	}
	v, errStr, err := rt.Invoke("Counter", "c1", "bump", interp.IntV(5))
	if err != nil || errStr != "" {
		t.Fatalf("%v %s", err, errStr)
	}
	if v.I != 5 {
		t.Fatalf("bump: %v", v)
	}
	st, ok := rt.EntityState("Counter", "c1")
	if !ok || st["n"].I != 5 {
		t.Fatalf("state: %v %v", st, ok)
	}
}

func TestMissingEntity(t *testing.T) {
	rt := newRT(t, 2)
	_, errStr, err := rt.Invoke("Counter", "ghost", "get")
	if err != nil {
		t.Fatal(err)
	}
	if errStr == "" {
		t.Fatal("expected missing-entity error")
	}
	if _, ok := rt.EntityState("Counter", "ghost"); ok {
		t.Fatal("ghost state")
	}
}

// TestConcurrentSingleKeyLinearizable: per-key serial mailboxes make
// concurrent increments on one key lose nothing.
func TestConcurrentSingleKeyLinearizable(t *testing.T) {
	rt := newRT(t, 8)
	if _, err := rt.Create("Counter", interp.StrV("hot")); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, errStr, err := rt.Invoke("Counter", "hot", "bump", interp.IntV(1)); err != nil || errStr != "" {
					t.Errorf("bump: %v %s", err, errStr)
					return
				}
			}
		}()
	}
	wg.Wait()
	st, _ := rt.EntityState("Counter", "hot")
	if st["n"].I != goroutines*perG {
		t.Fatalf("lost updates on single key: %d", st["n"].I)
	}
}

// TestCrossEntityChain runs split loops over entities on many partitions
// concurrently.
func TestCrossEntityChain(t *testing.T) {
	rt := newRT(t, 4)
	if _, err := rt.Create("Driver", interp.StrV("d")); err != nil {
		t.Fatal(err)
	}
	var refs []interp.Value
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("c%d", i)
		if _, err := rt.Create("Counter", interp.StrV(key)); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, interp.RefV("Counter", key))
	}
	v, errStr, err := rt.Invoke("Driver", "d", "fanout",
		interp.ListV(refs...), interp.IntV(2))
	if err != nil || errStr != "" {
		t.Fatalf("%v %s", err, errStr)
	}
	if v.I != 12 { // six counters, each bumped to 2
		t.Fatalf("fanout total: %v", v)
	}
	for i := 0; i < 6; i++ {
		st, _ := rt.EntityState("Counter", fmt.Sprintf("c%d", i))
		if st["n"].I != 2 {
			t.Fatalf("c%d: %d", i, st["n"].I)
		}
	}
}

func TestManyConcurrentChains(t *testing.T) {
	rt := newRT(t, 8)
	for i := 0; i < 4; i++ {
		if _, err := rt.Create("Driver", interp.StrV(fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := rt.Create("Counter", interp.StrV(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const chains = 40
	for i := 0; i < chains; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			refs := interp.ListV(
				interp.RefV("Counter", fmt.Sprintf("k%d", i%8)),
				interp.RefV("Counter", fmt.Sprintf("k%d", (i+3)%8)),
			)
			if _, errStr, err := rt.Invoke("Driver", fmt.Sprintf("d%d", i%4), "fanout",
				refs, interp.IntV(1)); err != nil || errStr != "" {
				t.Errorf("chain: %v %s", err, errStr)
			}
		}(i)
	}
	wg.Wait()
	// Every chain bumps two counters by 1: total across counters = 80.
	var total int64
	for i := 0; i < 8; i++ {
		st, _ := rt.EntityState("Counter", fmt.Sprintf("k%d", i))
		total += st["n"].I
	}
	if total != 2*chains {
		t.Fatalf("total bumps: %d want %d", total, 2*chains)
	}
}

func TestDuplicateCreate(t *testing.T) {
	rt := newRT(t, 2)
	if _, err := rt.Create("Counter", interp.StrV("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Create("Counter", interp.StrV("dup")); err == nil {
		t.Fatal("duplicate create must fail")
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(prog, Config{Workers: 2})
	rt.Close()
	rt.Close() // idempotent
	if _, _, err := rt.Invoke("Counter", "x", "get"); err == nil {
		t.Fatal("closed runtime must reject invokes")
	}
}

func TestProcessedCounter(t *testing.T) {
	rt := newRT(t, 2)
	if _, err := rt.Create("Counter", interp.StrV("p")); err != nil {
		t.Fatal(err)
	}
	before := rt.Processed()
	if _, _, err := rt.Invoke("Counter", "p", "get"); err != nil {
		t.Fatal(err)
	}
	if rt.Processed() <= before {
		t.Fatal("processed counter did not advance")
	}
	if n := rt.Metrics().Snapshot()["live.workers"]; n != 2 {
		t.Fatalf("live.workers: %d", n)
	}
}

// TestSubmitFuture exercises the async path: Submit returns a Pending
// resolved by the worker's response.
func TestSubmitFuture(t *testing.T) {
	rt := newRT(t, 4)
	if _, err := rt.Create("Counter", interp.StrV("f")); err != nil {
		t.Fatal(err)
	}
	p := rt.Submit("Counter", "f", "bump", interp.IntV(3))
	v, errStr, err := p.Wait()
	if err != nil || errStr != "" {
		t.Fatalf("%v %s", err, errStr)
	}
	if v.I != 3 {
		t.Fatalf("bump: %v", v)
	}
	if !p.Done() {
		t.Fatal("completed future not Done")
	}
	// Wait memoizes: calling again returns the same outcome.
	if v2, _, _ := p.Wait(); v2.I != 3 {
		t.Fatalf("second Wait: %v", v2)
	}
}

func TestSubmitApplicationError(t *testing.T) {
	rt := newRT(t, 2)
	_, errStr, err := rt.Submit("Counter", "ghost", "get").Wait()
	if err != nil {
		t.Fatal(err)
	}
	if errStr == "" {
		t.Fatal("expected missing-entity error on the future")
	}
}

func TestWaitContextTimeout(t *testing.T) {
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(prog, Config{Workers: 1, MailboxDepth: 1})
	defer rt.Close()
	// A pending that never completes: fabricate one not backed by any
	// event, so only the context can end the wait.
	p := newPending("never")
	rt.pending.Store("never", p)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := p.WaitContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	// Close must still complete it (the late Wait observes ErrClosed).
	go rt.Close()
	if _, _, err := p.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after shutdown, got %v", err)
	}
}

// TestCloseCompletesInflight is the regression test for the shutdown
// hang: Invoke used to block forever on its result channel if Close raced
// an in-flight request (the chain's next hop was dropped and nothing ever
// answered). Now every pending request must complete — with a response or
// with ErrClosed. Run under -race in CI.
func TestCloseCompletesInflight(t *testing.T) {
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		rt := New(prog, Config{Workers: 4})
		if _, err := rt.Create("Driver", interp.StrV("d")); err != nil {
			t.Fatal(err)
		}
		var refs []interp.Value
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("c%d", i)
			if _, err := rt.Create("Counter", interp.StrV(key)); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, interp.RefV("Counter", key))
		}
		// Hammer multi-hop chains from many goroutines while Close races.
		const goroutines = 8
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					p := rt.Submit("Driver", "d", "fanout", interp.ListV(refs...), interp.IntV(1))
					if _, _, err := p.Wait(); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("unexpected transport error: %v", err)
						return
					}
				}
			}()
		}
		go rt.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("waiters hung after Close: pending requests were not completed")
		}
		rt.Close()
	}
}

// TestSubmitAfterClose: a Submit that loses the race entirely still gets
// a completed (failed) future, never a hang.
func TestSubmitAfterClose(t *testing.T) {
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(prog, Config{Workers: 2})
	rt.Close()
	p := rt.Submit("Counter", "x", "get")
	if !p.Done() {
		t.Fatal("post-close submit must complete immediately")
	}
	if _, _, err := p.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestKeysAcrossPartitions(t *testing.T) {
	rt := newRT(t, 4)
	want := []string{"a", "b", "c", "d", "e"}
	for _, k := range want {
		if _, err := rt.Create("Counter", interp.StrV(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Create("Driver", interp.StrV("dr")); err != nil {
		t.Fatal(err)
	}
	got := rt.Keys("Counter")
	if len(got) != len(want) {
		t.Fatalf("keys: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys not sorted/complete: %v", got)
		}
	}
}
