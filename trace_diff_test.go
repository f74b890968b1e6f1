// Differential tests for the observability substrate's core contract:
// instrumentation is deterministically inert. Attaching a Tracer to a
// run must not change what the cluster does — transcripts, committed
// state, and even the fault-sensitive trace (latencies, delivery
// counts, virtual clock) must be byte-identical with tracing on and off
// — and because spans are derived purely from virtual timestamps, two
// runs of the same seed must serialize byte-identical trace files.
package stateflow_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos"
	"statefulentities.dev/stateflow/internal/chaos/oracle"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// TestTraceDifferentialOracleWorkloads drives the oracle workloads on
// StateFlow with tracing off and on — fault-free and under a
// seed-derived chaos plan — and requires byte-identical transcripts,
// committed state, and fault-sensitive traces. This is the inertness
// pin: a tracer that perturbed the RNG, charged virtual time, or sent a
// message would diverge here.
func TestTraceDifferentialOracleWorkloads(t *testing.T) {
	for _, w := range []oracle.Workload{oracle.Banking(), oracle.YCSB()} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := oracle.DefaultConfig()
				plan := chaos.FromSeed(seed, cfg.Horizon)
				for _, faulted := range []bool{false, true} {
					var p *chaos.Plan
					if faulted {
						p = &plan
					}
					cfg.Traced = false
					off, err := oracle.RunOnce(w, stateflow.BackendStateFlow, seed, p, cfg)
					if err != nil {
						t.Fatalf("seed %d faulted=%v untraced: %v", seed, faulted, err)
					}
					cfg.Traced = true
					on, err := oracle.RunOnce(w, stateflow.BackendStateFlow, seed, p, cfg)
					if err != nil {
						t.Fatalf("seed %d faulted=%v traced: %v", seed, faulted, err)
					}
					if on.Transcript != off.Transcript {
						t.Fatalf("seed %d faulted=%v: transcripts diverge:\n--- traced ---\n%s--- untraced ---\n%s",
							seed, faulted, on.Transcript, off.Transcript)
					}
					if on.StateDigest != off.StateDigest {
						t.Fatalf("seed %d faulted=%v: committed state diverges:\n--- traced ---\n%s--- untraced ---\n%s",
							seed, faulted, on.StateDigest, off.StateDigest)
					}
					if on.Trace != off.Trace {
						t.Fatalf("seed %d faulted=%v: fault-sensitive traces diverge (tracing is not inert):\n--- traced ---\n%s--- untraced ---\n%s",
							seed, faulted, on.Trace, off.Trace)
					}
				}
			}
		})
	}
}

// runTracedChain executes a k=24 transfer chain on a traced StateFlow
// deployment and returns the attached tracer. With shards > 1 the
// chain's neighbouring accounts land on different shards, so the run
// exercises the full cross-shard path: fence wait, global-batch
// execution, __apply__, unfence.
func runTracedChain(t *testing.T, shards int, seed int64) *stateflow.Tracer {
	t.Helper()
	const k = 24
	key := func(i int) string { return ycsb.Key(i) }
	tracer := stateflow.NewTracer()
	prog := stateflow.MustCompile(ycsb.Program())
	sim := stateflow.NewSimulation(prog, stateflow.SimConfig{
		Backend: stateflow.BackendStateFlow,
		Seed:    seed,
		Epoch:   10 * time.Millisecond,
		Shards:  shards,
		Tracer:  tracer,
	})
	admin := sim.Client().Admin()
	for i := 0; i <= k; i++ {
		if err := admin.Preload("Account",
			stateflow.Str(key(i)), stateflow.Int(1000), stateflow.Str("")); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	futs := make([]*stateflow.Future, 0, k)
	for i := 0; i < k; i++ {
		e := sim.Client().Entity("Account", key(i)).
			With(stateflow.WithKind("transfer"), stateflow.WithTimeout(time.Minute))
		futs = append(futs, e.Submit("transfer",
			stateflow.Int(5), stateflow.Ref("Account", key(i+1))))
	}
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil || res.Err != "" || !res.Value.B {
			t.Fatalf("shards=%d transfer %d: err=%v res=(%s,%q)",
				shards, i, err, res.Value.Repr(), res.Err)
		}
	}
	sim.Run(time.Second) // settle
	if sim.Tracer().Len() == 0 {
		t.Fatalf("shards=%d: traced run recorded no events", shards)
	}
	return sim.Tracer()
}

// traceJSON serializes a tracer and fails the test on error.
func traceJSON(t *testing.T, tr *stateflow.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestTraceSameSeedByteIdentical pins trace determinism: two runs of the
// same seed must serialize byte-identical Chrome trace-event JSON, and
// the output must be valid JSON in the trace-event envelope.
func TestTraceSameSeedByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 2} {
		a := traceJSON(t, runTracedChain(t, shards, 7))
		b := traceJSON(t, runTracedChain(t, shards, 7))
		if !bytes.Equal(a, b) {
			t.Fatalf("shards=%d: same-seed traces diverge:\n--- run 1 ---\n%s--- run 2 ---\n%s",
				shards, a, b)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(a, &doc); err != nil {
			t.Fatalf("shards=%d: trace is not valid JSON: %v", shards, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("shards=%d: trace-event envelope is empty", shards)
		}
	}
}

// TestCrossShardTraceCoverage asserts the span surface: a cross-shard
// run's trace must name every phase of a cross-shard transaction —
// fence wait, global-batch execution, __apply__, unfence — alongside
// the per-epoch phases every StateFlow run reports.
func TestCrossShardTraceCoverage(t *testing.T) {
	spans := runTracedChain(t, 2, 7).SpanNames()
	names := map[string]bool{}
	for _, n := range spans {
		names[n] = true
	}
	for _, want := range []string{
		"ingress.queue", "execute", "validate", "apply", "epoch.advance",
		"fence.wait", "global.execute", "__apply__", "unfence",
	} {
		if !names[want] {
			t.Errorf("cross-shard trace is missing the %q phase (got %v)", want, spans)
		}
	}
}

// TestFallbackChainTraceCoverage asserts the contended span surface: a
// single-coordinator chain of conflicting transfers re-executes as a
// fallback chain, and its trace names the chain's one round and the wait of
// each member's root event behind the lower TIDs on its entity — under the
// same inertness and determinism pins as every other span (the differential
// above runs contended banking traffic, the byte-identity test this run).
func TestFallbackChainTraceCoverage(t *testing.T) {
	tr := runTracedChain(t, 1, 7)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{`"name":"fallback.round"`, `"chain":"1"`, `"depth":`, `"members":`, `"drifted":"0"`, `"name":"chain.wait"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("chained run's trace has no %s (spans: %v)", want, tr.SpanNames())
		}
	}
}
