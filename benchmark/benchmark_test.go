package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// mini is a workload small enough for a unit test: a few hundred requests.
func mini(shards int, crashes bool) *workload {
	w := workload{
		Name: "mini", Mix: ycsb.WorkloadM, Dist: "uniform", Records: 50, PayloadBytes: 100, Shards: shards,
		RefRPS: 200, Window: 4 * time.Second, Drain: 10 * time.Second, Streams: 2,
	}
	if crashes {
		w.SnapshotEvery, w.SnapshotRetain, w.RetryEvery, w.Crashes = 50, 2, 250*time.Millisecond, true
	}
	return &w
}

// TestContractMatchesBenchmarkJSON pins the names, units, directions and
// bounds this program emits to the ones BENCHMARK.json declares.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []decl                       `json:"end_to_end"`
		PerLayer  []decl                       `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s / %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, decls []decl, defs []metric, bounded bool) {
		if len(decls) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(decls), len(defs))
		}
		for i, m := range defs {
			d := decls[i]
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, d, m)
			}
			if bounded != (d.Bound != nil) || (bounded && *d.Bound != m.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json %v, program %v", kind, m.Name, d.Bound, m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

func TestMetricTables(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why out of the contract", w.Name)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared: %+v", endToEnd[0])
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	// Every per-layer metric says which end-to-end metric it should move,
	// and on which workload.
	for _, m := range perLayer {
		namesMetric, namesWorkload := false, strings.Contains(m.Moves, "every workload") || strings.Contains(m.Moves, "all four")
		for _, e := range endToEnd {
			namesMetric = namesMetric || strings.Contains(m.Moves, e.Name)
		}
		for _, w := range workloads {
			namesWorkload = namesWorkload || strings.Contains(m.Moves, w.Name)
		}
		if !namesMetric || !namesWorkload || m.Source == "" {
			t.Errorf("%s: moves %q must name an end-to-end metric and a workload", m.Name, m.Moves)
		}
	}
}

// TestSlicesRepeatExactly runs one stream twice and once traced: the
// virtual result (latencies, counts, and the digest of every response
// instant and final balance) must be identical all three times.
func TestSlicesRepeatExactly(t *testing.T) {
	for _, w := range []*workload{mini(0, false), mini(2, false), mini(0, true)} {
		r := newRunner(w, 7)
		var got []virtResult
		for _, hooks := range []runHooks{{}, {}, {Tracer: obs.NewTracer()}} {
			s, _, err := r.slice(0, w.RefRPS, w.Window, hooks)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Problems) > 0 || s.Virt.Failed > 0 {
				t.Fatalf("shards=%d crashes=%v: oracle: %v, %d failed", w.Shards, w.Crashes, s.Problems, s.Virt.Failed)
			}
			if s.Virt.Samples == 0 || s.Virt.P99 < s.Virt.P50 || s.Virt.Outage <= 0 {
				t.Fatalf("implausible slice: %+v", s.Virt)
			}
			got = append(got, s.Virt)
		}
		if got[0] != got[1] {
			t.Errorf("shards=%d crashes=%v: two slices differ:\n %+v\n %+v", w.Shards, w.Crashes, got[0], got[1])
		}
		if got[0] != got[2] {
			t.Errorf("shards=%d crashes=%v: traced slice differs:\n %+v\n %+v", w.Shards, w.Crashes, got[0], got[2])
		}
		other, _, err := r.slice(1, w.RefRPS, w.Window, runHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if other.Virt.Digest == got[0].Digest {
			t.Errorf("streams 0 and 1 produced the same run")
		}
	}
}

// TestOracleCatchesCorruptBalance corrupts one committed balance after a
// correct slice: the oracle must name it and fail the requests touching
// that account, and only those.
func TestOracleCatchesCorruptBalance(t *testing.T) {
	w := mini(0, false)
	r := newRunner(w, 3)
	s, d, err := r.slice(0, w.RefRPS, w.Window, runHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Problems) > 0 {
		t.Fatalf("clean slice: %v", s.Problems)
	}
	want, err := reference(w.Records, d.rec.reqs)
	if err != nil {
		t.Fatal(err)
	}
	victim := d.rec.reqs[0].Target
	st, _ := d.sys.EntityState(victim.Class, victim.Key)
	st["balance"] = interp.IntV(st["balance"].I + 1)
	d.sys.Preload(victim, st)

	failed, problems := d.checkSlice(want)
	if len(problems) < 2 { // the account and the total
		t.Fatalf("corruption not reported: %v", problems)
	}
	touching := 0
	for i, req := range d.rec.reqs {
		hits := false
		for _, key := range touches(req) {
			hits = hits || key == victim.Key
		}
		if hits != failed[i] {
			t.Fatalf("request %s: touches victim %v, failed %v", req.Req, hits, failed[i])
		}
		if hits {
			touching++
		}
	}
	v, _ := d.measure(failed, 0)
	if v.Failed != touching || touching == 0 {
		t.Fatalf("failed %d, touching %d", v.Failed, touching)
	}
}

func TestStats(t *testing.T) {
	if got := iqMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("iqMean: %v", got)
	}
	xs := []time.Duration{5, 1, 4, 2, 3}
	if p := percentile(xs, 0.5); p != 3 {
		t.Errorf("p50: %v", p)
	}
	if p := percentile(xs, 0.99); p != 5 {
		t.Errorf("p99: %v", p)
	}
}
