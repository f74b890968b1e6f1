// Cross-backend conformance: one scenario suite, written once against the
// Client interface, runs on every execution target — Local, the simulated
// StateFlow runtime, the simulated StateFun-model baseline, and the
// concurrent Live runtime — and must produce byte-identical response
// transcripts on all of them. This is the paper's §3 claim ("the choice
// of a runtime system is completely independent of the application
// layer") enforced at the API level.
package stateflow_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"statefulentities.dev/stateflow"
)

// conformanceTargets builds one Client per execution target. The returned
// advance func drives background progress where a target needs it
// (virtual time on simulations); it is nil elsewhere.
func conformanceTargets(t *testing.T, prog *stateflow.Program) []struct {
	name    string
	client  stateflow.Client
	advance func(time.Duration)
} {
	t.Helper()
	simSF := stateflow.NewSimulation(prog, stateflow.SimConfig{
		Backend: stateflow.BackendStateFlow, Epoch: 5 * time.Millisecond,
	})
	simFUN := stateflow.NewSimulation(prog, stateflow.SimConfig{
		Backend: stateflow.BackendStateFun,
	})
	liveC := stateflow.NewLiveClient(prog, stateflow.LiveConfig{Workers: 4})
	t.Cleanup(func() { _ = liveC.Close() })
	return []struct {
		name    string
		client  stateflow.Client
		advance func(time.Duration)
	}{
		{"local", stateflow.NewLocalClient(prog), nil},
		{"sim-stateflow", simSF.Client(), simSF.Run},
		{"sim-statefun", simFUN.Client(), simFUN.Run},
		{"live", liveC, nil},
	}
}

// line formats one response for the transcript. Only backend-independent
// fields participate (latency, retries and hops legitimately differ).
func line(class, key, method string, res stateflow.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s<%s>.%s -> transport error", class, key, method)
	}
	return fmt.Sprintf("%s<%s>.%s -> %s / err=%q", class, key, method, res.Value.Repr(), res.Err)
}

// runQuickstartScenario drives the Figure-1 buy_item scenarios through a
// Client and returns the transcript.
func runQuickstartScenario(t *testing.T, c stateflow.Client) []string {
	t.Helper()
	var tr []string
	apple, err := c.Create("Item", stateflow.Str("apple"), stateflow.Int(5))
	if err != nil {
		t.Fatalf("create Item: %v", err)
	}
	alice, err := c.Create("User", stateflow.Str("alice"))
	if err != nil {
		t.Fatalf("create User: %v", err)
	}
	call := func(e *stateflow.Entity, method string, args ...stateflow.Value) {
		res, err := e.Call(method, args...)
		tr = append(tr, line(e.Class(), e.Key(), method, res, err))
	}
	call(apple, "update_stock", stateflow.Int(10))
	call(alice, "buy_item", stateflow.Int(3), apple.RefValue())   // succeeds
	call(alice, "buy_item", stateflow.Int(100), apple.RefValue()) // insufficient funds
	call(alice, "buy_item", stateflow.Int(9), apple.RefValue())   // out of stock, compensated
	call(apple, "get_price")
	// An application error must surface identically everywhere.
	call(c.Entity("User", "nobody"), "buy_item", stateflow.Int(1), apple.RefValue())
	// Admin surface: committed state and key listing.
	tr = append(tr, inspectLine(c.Admin(), "User", "alice", "balance"))
	tr = append(tr, inspectLine(c.Admin(), "Item", "apple", "stock"))
	tr = append(tr, fmt.Sprintf("keys User=%v Item=%v", c.Admin().Keys("User"), c.Admin().Keys("Item")))
	return tr
}

// runBankingScenario drives transfers — sequential calls, then concurrent
// futures on disjoint account pairs — and returns the transcript.
func runBankingScenario(t *testing.T, c stateflow.Client, advance func(time.Duration)) []string {
	t.Helper()
	var tr []string
	names := []string{"alice", "bob", "carol", "dave"}
	admin := c.Admin()
	for _, n := range names {
		if err := admin.Preload("Account", stateflow.Str(n), stateflow.Int(100)); err != nil {
			t.Fatalf("preload %s: %v", n, err)
		}
	}
	for i := 0; i < 10; i++ {
		from, to := names[i%4], names[(i+1)%4]
		res, err := c.Entity("Account", from).Call("transfer",
			stateflow.Int(5), stateflow.Ref("Account", to))
		tr = append(tr, line("Account", from, "transfer", res, err))
	}
	// Concurrent futures on disjoint pairs: deterministic outcome on every
	// backend, including the non-transactional ones.
	futA := c.Entity("Account", "alice").Submit("transfer", stateflow.Int(10), stateflow.Ref("Account", "bob"))
	futB := c.Entity("Account", "carol").Submit("transfer", stateflow.Int(20), stateflow.Ref("Account", "dave"))
	if advance != nil {
		advance(5 * time.Second)
	}
	for _, f := range []*stateflow.Future{futA, futB} {
		res, err := f.Wait()
		tr = append(tr, line(f.Target().Class, f.Target().Key, f.Method(), res, err))
		if !f.Done() {
			t.Fatalf("future %s not done after Wait", f.Target())
		}
	}
	for _, n := range names {
		res, err := c.Entity("Account", n).Call("read")
		tr = append(tr, line("Account", n, "read", res, err))
	}
	tr = append(tr, fmt.Sprintf("keys Account=%v", admin.Keys("Account")))
	var total int64
	for _, n := range admin.Keys("Account") {
		st, ok := admin.Inspect("Account", n)
		if !ok {
			t.Fatalf("account %s missing", n)
		}
		total += st["balance"].I
	}
	tr = append(tr, fmt.Sprintf("total=%d", total))
	return tr
}

// assertIdentical requires every target's transcript to be byte-identical
// to the first one.
func assertIdentical(t *testing.T, transcripts map[string][]string) {
	t.Helper()
	names := make([]string, 0, len(transcripts))
	for n := range transcripts {
		names = append(names, n)
	}
	sort.Strings(names)
	ref := names[0]
	want := strings.Join(transcripts[ref], "\n")
	for _, n := range names[1:] {
		got := strings.Join(transcripts[n], "\n")
		if got != want {
			t.Fatalf("transcripts diverge between %s and %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				ref, n, ref, want, n, got)
		}
	}
}

func TestConformanceQuickstart(t *testing.T) {
	transcripts := map[string][]string{}
	for _, tgt := range conformanceTargets(t, stateflow.MustCompile(figure1)) {
		// Each target gets a fresh program instance? Not needed: the
		// compiled Program is read-only at runtime and shared safely.
		transcripts[tgt.name] = runQuickstartScenario(t, tgt.client)
	}
	assertIdentical(t, transcripts)
}

func TestConformanceBanking(t *testing.T) {
	prog := stateflow.MustCompile(bankingSource)
	transcripts := map[string][]string{}
	for _, tgt := range conformanceTargets(t, prog) {
		transcripts[tgt.name] = runBankingScenario(t, tgt.client, tgt.advance)
	}
	assertIdentical(t, transcripts)
	// Money conservation is already part of the transcript (total=400);
	// the transcript equality above proves it held on every backend.
}

// runFailedConstructorScenario creates an entity whose constructor fails
// after its first write, then retries with arguments that succeed. A failed
// constructor must leave nothing behind: no state to inspect, no key, and
// no "already exists" on the retry.
func runFailedConstructorScenario(t *testing.T, c stateflow.Client) []string {
	t.Helper()
	var tr []string
	create := func(d int64) {
		if _, err := c.Create("C", stateflow.Str("a"), stateflow.Int(d)); err != nil {
			tr = append(tr, fmt.Sprintf("create C<a> d=%d -> %v", d, err))
			return
		}
		tr = append(tr, fmt.Sprintf("create C<a> d=%d -> ok", d))
	}
	get := func() {
		res, err := c.Entity("C", "a").Call("get")
		tr = append(tr, line("C", "a", "get", res, err))
	}
	create(0)
	tr = append(tr, inspectLine(c.Admin(), "C", "a", "k"))
	get()
	tr = append(tr, fmt.Sprintf("keys C=%v", c.Admin().Keys("C")))
	create(1)
	get()
	tr = append(tr, inspectLine(c.Admin(), "C", "a", "v"))
	tr = append(tr, fmt.Sprintf("keys C=%v", c.Admin().Keys("C")))
	return tr
}

func TestConformanceFailedConstructor(t *testing.T) {
	prog := stateflow.MustCompile(failingCtorSource)
	transcripts := map[string][]string{}
	for _, tgt := range conformanceTargets(t, prog) {
		transcripts[tgt.name] = runFailedConstructorScenario(t, tgt.client)
	}
	assertIdentical(t, transcripts)
	want := []string{
		"create C<a> d=0 -> 6:26: runtime error: division by zero",
		"inspect C<a> missing",
		`C<a>.get -> None / err="entity C<a> does not exist"`,
		"keys C=[]",
		"create C<a> d=1 -> ok",
		`C<a>.get -> 10 / err=""`,
		"inspect C<a>.v=10",
		"keys C=[a]",
	}
	if got := strings.Join(transcripts["local"], "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("transcript:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

const failingCtorSource = `
@entity
class C:
    def __init__(self, k: str, d: int):
        self.k: str = k
        self.v: int = 10 // d

    def __key__(self) -> str:
        return self.k

    def get(self) -> int:
        return self.v
`

// inspectLine formats one attribute read through Admin.Inspect.
func inspectLine(a stateflow.Admin, class, key, attr string) string {
	st, ok := a.Inspect(class, key)
	if !ok {
		return fmt.Sprintf("inspect %s<%s> missing", class, key)
	}
	return fmt.Sprintf("inspect %s<%s>.%s=%s", class, key, attr, st[attr].Repr())
}

const bankingSource = `
@entity
class Account:
    def __init__(self, owner: str, balance: int):
        self.owner: str = owner
        self.balance: int = balance

    def __key__(self) -> str:
        return self.owner

    def read(self) -> int:
        return self.balance

    def deposit(self, amount: int) -> bool:
        self.balance += amount
        return True

    @transactional
    def transfer(self, amount: int, to: Account) -> bool:
        if self.balance < amount:
            return False
        self.balance -= amount
        to.deposit(amount)
        return True
`
