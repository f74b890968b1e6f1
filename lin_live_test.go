package stateflow_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"statefulentities.dev/stateflow"
	adversarial "statefulentities.dev/stateflow/internal/chaos/workload"
	"statefulentities.dev/stateflow/internal/lin"
)

// These tests point the history checker at the Live runtime — real
// goroutines, channels, and partition workers instead of the
// deterministic simulator — and are the intended target of `go test
// -race -run Live`. The Live contract (package live) is narrower than
// the transactional StateFlow backend's: each partition processes its
// mailbox serially, so single-entity operations are linearizable per
// key, while cross-entity transactions make no isolation promise under
// interleaving. The traffic below is shaped to that contract, the same
// way the adversarial oracle shapes its driving to the StateFun
// baseline's: whatever the runtime promises, the checker verifies.

// liveHistory accumulates a checker history from concurrent sessions.
type liveHistory struct {
	mu sync.Mutex
	h  *lin.History
}

func (lh *liveHistory) invoke(op adversarial.Op) {
	lh.mu.Lock()
	lh.h.Invokes = append(lh.h.Invokes, op.Invoke())
	lh.mu.Unlock()
}

// settle folds one completed call into the history and returns the
// decoded observations (nil when the op erred).
func (lh *liveHistory) settle(t *testing.T, op adversarial.Op, res stateflow.Result, err error) []lin.Observation {
	t.Helper()
	if err != nil {
		t.Errorf("op %s %s<%s>.%s: transport error: %v", op.ID, adversarial.Class, op.Key, op.Method, err)
		return nil
	}
	out := lin.Outcome{ID: op.ID, Err: res.Err}
	if res.Err == "" {
		obs, derr := adversarial.Decode(op, res.Value)
		if derr != nil {
			t.Errorf("op %s: %v", op.ID, derr)
			out.Err = derr.Error()
		} else {
			out.Obs = obs
		}
	}
	lh.mu.Lock()
	lh.h.Outcomes = append(lh.h.Outcomes, out)
	lh.mu.Unlock()
	return out.Obs
}

// harvest reads the settled cells into checker form.
func (lh *liveHistory) harvest(t *testing.T, admin stateflow.Admin, cells int) {
	t.Helper()
	lh.h.Final = make(map[lin.Entity]lin.State, cells)
	for i := 0; i < cells; i++ {
		key := adversarial.Key(i)
		st, ok := admin.Inspect(adversarial.Class, key)
		if !ok {
			t.Fatalf("preloaded cell %s missing from live state", key)
		}
		lh.h.Final[lin.Entity{Class: adversarial.Class, Key: key}] = lin.State{
			Version: st["version"].I, Value: st["value"].I, Last: st["last"].Str(),
		}
	}
}

// TestLiveConcurrentSessions hammers two hot cells from concurrent
// client goroutines — single-entity gets and bumps only, the shape the
// Live runtime promises to linearize per key — and checks the observed
// history. Each goroutine is a session: every op declares a dependency
// on its predecessor, so whenever consecutive ops land on the same cell
// the checker enforces read-your-writes across the concurrency, and the
// per-key version chains must still weave into one serial order.
func TestLiveConcurrentSessions(t *testing.T) {
	const sessions, perSession = 8, 25
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := adversarial.FromSeed(adversarial.HotKey, seed)
			prog := stateflow.MustCompile(adversarial.Program())
			client := stateflow.NewLiveClient(prog, stateflow.LiveConfig{Workers: 8})
			defer client.Close()
			admin := client.Admin()
			if err := spec.Preload(admin); err != nil {
				t.Fatalf("preload: %v", err)
			}

			lh := &liveHistory{h: &lin.History{Initial: spec.Initial()}}
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*1000 + int64(s)))
					dep := ""
					for i := 0; i < perSession; i++ {
						op := adversarial.Op{ID: fmt.Sprintf("s%dn%02d", s, i), Dep: dep}
						if rng.Intn(100) < 60 {
							op.Key = adversarial.Key(rng.Intn(2)) // hot cells
						} else {
							op.Key = adversarial.Key(rng.Intn(spec.Cells))
						}
						if rng.Intn(100) < 30 {
							op.Method = "get"
						} else {
							op.Method = "bump"
							op.D = int64(1 + rng.Intn(9))
						}
						lh.invoke(op)
						res, err := client.Entity(adversarial.Class, op.Key).Call(op.Method, op.Args()...)
						lh.settle(t, op, res, err)
						dep = op.ID
					}
				}(s)
			}
			wg.Wait()

			lh.harvest(t, admin, spec.Cells)
			if err := lin.Check(lh.h, spec.Conservation()); err != nil {
				t.Fatalf("live concurrent history rejected: %v", err)
			}
		})
	}
}

// TestLiveChains drives the Chain profile's dependent chains on the
// Live runtime one chain at a time — the same discipline the
// adversarial oracle applies to the StateFun baseline, because chains
// contain cross-entity moves and the Live runtime makes no isolation
// promise for interleaved multi-entity transactions. Sequential driving
// still exercises real concurrency: every move fans events across
// partition workers, and the checker confirms each chain's
// read-your-writes edges and the final settled state.
func TestLiveChains(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := adversarial.FromSeed(adversarial.Chain, seed)
			prog := stateflow.MustCompile(adversarial.Program())
			client := stateflow.NewLiveClient(prog, stateflow.LiveConfig{Workers: 8})
			defer client.Close()
			admin := client.Admin()
			if err := spec.Preload(admin); err != nil {
				t.Fatalf("preload: %v", err)
			}

			lh := &liveHistory{h: &lin.History{Initial: spec.Initial()}}
			for _, start := range spec.Starts() {
				op, more := start, true
				for more {
					lh.invoke(op)
					res, err := client.Entity(adversarial.Class, op.Key).Call(op.Method, op.Args()...)
					obs := lh.settle(t, op, res, err)
					failed := err != nil || res.Err != "" || obs == nil
					op, more = spec.Next(op, obs, failed)
				}
			}

			lh.harvest(t, admin, spec.Cells)
			if err := lin.Check(lh.h, spec.Conservation()); err != nil {
				t.Fatalf("live chain history rejected: %v", err)
			}
		})
	}
}
