// Tests of the Future and CallOption surface across runtimes.
package stateflow_test

import (
	"strings"
	"testing"
	"time"

	"statefulentities.dev/stateflow"
)

func TestLocalSubmitFutureIsBornComplete(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	c := stateflow.NewLocalClient(prog)
	if _, err := c.Create("Item", stateflow.Str("apple"), stateflow.Int(5)); err != nil {
		t.Fatal(err)
	}
	f := c.Entity("Item", "apple").Submit("update_stock", stateflow.Int(4))
	if !f.Done() {
		t.Fatal("local futures must be born complete")
	}
	res, ok := f.Peek()
	if !ok || res.Err != "" || !res.Value.B {
		t.Fatalf("peek: %+v %v", res, ok)
	}
	if res2, err := f.Wait(); err != nil || res2.Value.Repr() != res.Value.Repr() || res2.Err != res.Err {
		t.Fatalf("wait after peek: %+v %v", res2, err)
	}
	if f.Target().Key != "apple" || f.Method() != "update_stock" {
		t.Fatalf("future metadata: %s.%s", f.Target(), f.Method())
	}
}

// TestSimulationSubmitFutureFailure: a failing submitted request must
// surface its application error, retry count and latency through the
// Future.
func TestSimulationSubmitFutureFailure(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	for _, backend := range []stateflow.Backend{stateflow.BackendStateFlow, stateflow.BackendStateFun} {
		t.Run(string(backend), func(t *testing.T) {
			simu := stateflow.NewSimulation(prog, stateflow.SimConfig{Backend: backend})
			c := simu.Client()
			// No preload: calling a method on a missing entity fails at the
			// application level.
			f := c.Entity("User", "ghost").Submit("buy_item",
				stateflow.Int(1), stateflow.Ref("Item", "nope"))
			if f.Done() {
				t.Fatal("future complete before any virtual time passed")
			}
			res, err := f.Wait()
			if err != nil {
				t.Fatalf("transport error: %v", err)
			}
			if res.Err == "" || !strings.Contains(res.Err, "ghost") {
				t.Fatalf("application error lost: %+v", res)
			}
			if res.Latency <= 0 {
				t.Fatalf("latency lost: %+v", res)
			}
			if res.Retries != 0 {
				t.Fatalf("unexpected retries: %+v", res)
			}
		})
	}
}

func TestSimulationFutureResolvesViaRun(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{Epoch: 5 * time.Millisecond})
	c := simu.Client()
	if err := c.Admin().Preload("Item", stateflow.Str("apple"), stateflow.Int(2)); err != nil {
		t.Fatal(err)
	}
	f := c.Entity("Item", "apple").Submit("get_price")
	if f.Done() {
		t.Fatal("not yet delivered")
	}
	simu.Run(5 * time.Second) // futures resolve as virtual time advances
	res, ok := f.Peek()
	if !ok {
		t.Fatal("future unresolved after Run")
	}
	if res.Err != "" || res.Value.I != 2 {
		t.Fatalf("peek: %+v", res)
	}
}

func TestCallTimeoutOption(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{})
	if err := simu.Preload("Item", stateflow.Str("apple"), stateflow.Int(2)); err != nil {
		t.Fatal(err)
	}
	// A 1µs budget cannot cover the client link latency: the call must
	// time out instead of looping to the default 30s.
	item := simu.Client().Entity("Item", "apple").
		With(stateflow.WithTimeout(time.Microsecond), stateflow.WithPatience(time.Microsecond))
	_, err := item.Call("get_price")
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout, got %v", err)
	}
	// The same handle with a sane budget succeeds — and a future from the
	// impatient handle can still be waited on with the patient one's
	// options unaffected.
	res, err := item.With(stateflow.WithTimeout(10 * time.Second)).Call("get_price")
	if err != nil || res.Value.I != 2 {
		t.Fatalf("recovered call: %+v %v", res, err)
	}
}

func TestWithPatienceControlsPolling(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{Epoch: 5 * time.Millisecond})
	if err := simu.Preload("Item", stateflow.Str("apple"), stateflow.Int(2)); err != nil {
		t.Fatal(err)
	}
	before := simu.Cluster.Now()
	coarse := simu.Client().Entity("Item", "apple").With(stateflow.WithPatience(200 * time.Millisecond))
	res, err := coarse.Call("get_price")
	if err != nil || res.Value.I != 2 {
		t.Fatalf("coarse call: %+v %v", res, err)
	}
	// With 200ms polling granularity the call consumed at least one full
	// patience step of virtual time.
	if advanced := simu.Cluster.Now() - before; advanced < 200*time.Millisecond {
		t.Fatalf("patience not honored: advanced %s", advanced)
	}
}

func TestLiveClientFutures(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	c := stateflow.NewLiveClient(prog, stateflow.LiveConfig{Workers: 4})
	defer func() { _ = c.Close() }()
	if _, err := c.Create("Item", stateflow.Str("gpu"), stateflow.Int(900)); err != nil {
		t.Fatal(err)
	}
	item := c.Entity("Item", "gpu")
	if _, err := item.Call("update_stock", stateflow.Int(10)); err != nil {
		t.Fatal(err)
	}
	futs := make([]*stateflow.Future, 8)
	for i := range futs {
		futs[i] = item.Submit("update_stock", stateflow.Int(-1))
	}
	for _, f := range futs {
		res, err := f.Wait()
		if err != nil || res.Err != "" {
			t.Fatalf("wait: %+v %v", res, err)
		}
	}
	st, ok := c.Admin().Inspect("Item", "gpu")
	if !ok || st["stock"].I != 2 {
		t.Fatalf("state after futures: %v %v", st, ok)
	}
	if keys := c.Admin().Keys("Item"); len(keys) != 1 || keys[0] != "gpu" {
		t.Fatalf("keys: %v", keys)
	}
}

func TestLiveClientCloseFailsPendingFutures(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	c := stateflow.NewLiveClient(prog, stateflow.LiveConfig{Workers: 2})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f := c.Entity("Item", "x").Submit("get_price")
	if _, err := f.Wait(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("want runtime-closed error, got %v", err)
	}
}

func TestAdminPreloadAfterStartRejectedOnSim(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{})
	admin := simu.Client().Admin()
	if err := admin.Preload("User", stateflow.Str("u")); err != nil {
		t.Fatal(err)
	}
	if _, err := simu.Client().Entity("User", "u").Call("buy_item",
		stateflow.Int(1), stateflow.Ref("Item", "x")); err != nil {
		t.Fatal(err)
	}
	if err := admin.Preload("User", stateflow.Str("late")); err == nil {
		t.Fatal("preload after start must fail")
	}
}

// TestFutureWaitTimeoutIsRetryable: a transport timeout must not resolve
// the future — after more virtual time the real outcome is observable.
func TestFutureWaitTimeoutIsRetryable(t *testing.T) {
	prog := stateflow.MustCompile(figure1)
	simu := stateflow.NewSimulation(prog, stateflow.SimConfig{})
	if err := simu.Preload("Item", stateflow.Str("apple"), stateflow.Int(2)); err != nil {
		t.Fatal(err)
	}
	f := simu.Client().Entity("Item", "apple").
		With(stateflow.WithTimeout(time.Microsecond), stateflow.WithPatience(time.Microsecond)).
		Submit("get_price")
	if _, err := f.Wait(); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout, got %v", err)
	}
	if f.Done() {
		t.Fatal("timeout must not resolve the future")
	}
	simu.Run(5 * time.Second)
	res, err := f.Wait()
	if err != nil || res.Err != "" || res.Value.I != 2 {
		t.Fatalf("retried wait: %+v %v", res, err)
	}
}
