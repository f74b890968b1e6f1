package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"maps"
	"strings"
	"testing"
	"time"
)

// TestRegistryExposition pins the Prometheus text output: sorted names,
// sanitized charset, one counter line per read-through func.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Func("stateflow.dlog.syncs", func() int64 { return 7 })
	r.Func("live.workers", func() int64 { return 4 })
	r.Func("stateflow.coordinator.fallback_rounds", func() int64 { return 3 })
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE live_workers counter\nlive_workers 4\n",
		"# TYPE stateflow_coordinator_fallback_rounds counter\nstateflow_coordinator_fallback_rounds 3\n",
		"# TYPE stateflow_dlog_syncs counter\nstateflow_dlog_syncs 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition is missing %q:\n%s", want, out)
		}
	}
	// Scalars come out name-sorted, so the exposition is deterministic.
	if strings.Index(out, "live_workers") > strings.Index(out, "stateflow_dlog_syncs") {
		t.Errorf("exposition is not name-sorted:\n%s", out)
	}
}

// TestRegistryFields pins the naming rule and the read-through of Fields:
// every exported signed-integer field is published as prefix +
// snake_case(name) and read when exposed, a slice sums each field over its
// elements, and any other field is left out.
func TestRegistryFields(t *testing.T) {
	type stats struct {
		Commits           int
		CorruptLogRecords int64
		FunctionExecution time.Duration
		Label             string
		Restored          []int64
		hidden            int
	}
	r := NewRegistry()
	one := stats{hidden: 1}
	r.Fields("a.", func() any { return one })
	many := []stats{{Commits: 1}, {Commits: 2, FunctionExecution: 5}}
	r.Fields("b.", func() any { return many })
	one.Commits, one.CorruptLogRecords, one.FunctionExecution = 3, 4, time.Millisecond
	want := map[string]int64{
		"a.commits": 3, "a.corrupt_log_records": 4, "a.function_execution": int64(time.Millisecond),
		"b.commits": 3, "b.corrupt_log_records": 0, "b.function_execution": 5,
	}
	if got := r.Snapshot(); !maps.Equal(got, want) {
		t.Fatalf("Fields published %v, want %v", got, want)
	}
}

// TestRegistryReadThrough pins the Func re-registration contract: a
// recovered component re-points the closure instead of stacking.
func TestRegistryReadThrough(t *testing.T) {
	r := NewRegistry()
	val := int64(1)
	r.Func("x.y", func() int64 { return val })
	val = 5
	if got := r.Snapshot()["x.y"]; got != 5 {
		t.Fatalf("read-through func returned %d, want live value 5", got)
	}
	r.Func("x.y", func() int64 { return 99 })
	if got := r.Snapshot()["x.y"]; got != 99 {
		t.Fatalf("re-registered func returned %d, want 99", got)
	}
}

// TestPublishExpvarRepublish pins the duplicate-publish guard: expvar
// panics on duplicate names, so re-publishing must re-point instead.
func TestPublishExpvarRepublish(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Func("n", func() int64 { return 1 })
	b.Func("n", func() int64 { return 2 })
	a.PublishExpvar("obs.test.republish")
	b.PublishExpvar("obs.test.republish") // must not panic
	got := expvar.Get("obs.test.republish").String()
	if !strings.Contains(got, `"n": 2`) {
		t.Fatalf("expvar still points at the first registry: %s", got)
	}
}

// TestHistogramExactBelowCapacity pins the reservoir contract the bench
// gates rely on: a bounded histogram is exact — identical to an
// unbounded one — until the sample count exceeds the capacity.
func TestHistogramExactBelowCapacity(t *testing.T) {
	exact, bounded := &Histogram{}, NewBoundedHistogram(1000)
	for i := 0; i < 1000; i++ {
		d := time.Duration(i%97) * time.Millisecond
		exact.Observe(d)
		bounded.Observe(d)
	}
	if e, b := exact.Snapshot(), bounded.Snapshot(); e != b {
		t.Fatalf("bounded histogram diverged below capacity:\nexact   %+v\nbounded %+v", e, b)
	}
}

// TestHistogramReservoirDeterministic pins that the reservoir's PRNG is
// private and fixed-seeded: two histograms fed the same overflow-length
// sequence retain the same sample set, and exact stats stay exact.
func TestHistogramReservoirDeterministic(t *testing.T) {
	const cap, n = 64, 10_000
	a, b := NewBoundedHistogram(cap), NewBoundedHistogram(cap)
	var sum time.Duration
	for i := 0; i < n; i++ {
		d := time.Duration(i*i%1009) * time.Microsecond
		sum += d
		a.Observe(d)
		b.Observe(d)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa != sb {
		t.Fatalf("same-input reservoirs diverged:\na %+v\nb %+v", sa, sb)
	}
	if sa.Count != n || a.sum != sum || sa.Mean != sum/n {
		t.Fatalf("count/sum/mean must stay exact in reservoir mode: got count=%d sum=%s mean=%s", sa.Count, a.sum, sa.Mean)
	}
	if len(a.samples) != cap {
		t.Fatalf("reservoir retains %d samples, want the capacity %d", len(a.samples), cap)
	}
}

// TestTracerJSON pins the export: valid JSON in the trace-event
// envelope, byte-identical across serializations, nil tracer emits the
// empty envelope.
func TestTracerJSON(t *testing.T) {
	tr := NewTracer()
	tr.Span("sf-coord", "epoch", "execute", time.Millisecond, 3*time.Millisecond,
		"epoch", "1", "round", "0")
	tr.Instant("sf-coord", "epoch", "epoch.advance", 3*time.Millisecond)
	tr.Span("sf-seq", "global", "fence.wait", 0, 500*time.Microsecond+250*time.Nanosecond)
	var a, b bytes.Buffer
	if err := tr.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serializations of the same tracer differ")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, a.String())
	}
	// 2 lane metadata records + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5:\n%s", len(doc.TraceEvents), a.String())
	}
	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Fatal("nil tracer claims to be enabled")
	}
	var c bytes.Buffer
	if err := nilTracer.WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(c.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer envelope is not valid JSON: %v", err)
	}
}

// TestFlightRecorderRing pins the bounded ring: eviction keeps the most
// recent events, Seq keeps counting, Dump names the loss.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Recordf(time.Duration(i)*time.Millisecond, "sf-coord", "epoch.advance", "epoch %d", i)
	}
	events := f.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	if f.Total() != 10 {
		t.Fatalf("total %d, want 10", f.Total())
	}
	if events[0].Seq != 6 || events[3].Seq != 9 {
		t.Fatalf("ring kept the wrong window: %+v", events)
	}
	dump := f.Dump()
	if !strings.HasPrefix(dump, "flight recorder timeline (last 4 of 10 events):") {
		t.Fatalf("dump header wrong:\n%s", dump)
	}
	if !strings.Contains(dump, "epoch 9") {
		t.Fatalf("dump is missing the newest event:\n%s", dump)
	}
	var nilRec *FlightRecorder
	nilRec.Record(0, "x", "y", "z") // must not panic
	if nilRec.Dump() != "" || len(nilRec.Events()) != 0 {
		t.Fatal("nil recorder is not inert")
	}
}
