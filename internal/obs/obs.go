// Package obs is the observability substrate of the reproduction: a
// dependency-free metrics registry (named counters, gauges and
// histograms with Prometheus-style text exposition and expvar
// publishing), a transaction tracer emitting Chrome trace-event JSON,
// and a flight recorder — a bounded ring of structured cluster events
// the chaos and linearizability oracles dump on failure.
//
// Everything here is built to be deterministically inert when attached
// to the cluster simulator: recording never draws from the simulation's
// RNG, never charges virtual CPU time and never sends messages, so a
// run with instrumentation attached is byte-identical — transcripts,
// committed state, durable logs — to the same seed without it. The
// tracer and flight recorder are nil-safe: a nil *Tracer or nil
// *FlightRecorder accepts every call as a no-op, so call sites carry no
// "is tracing on" branches.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. Safe for concurrent use
// (the Live runtime increments from worker goroutines while the /metrics
// handler reads).
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named-metric registry with stable dotted names
// ("stateflow.coordinator.fallback_rounds", "dlog.syncs", …). Metrics
// register once and are cheap to look up; exposition walks every
// registered metric in sorted name order, so the output is
// deterministic for a given registry state.
//
// Two registration styles coexist:
//
//   - native metrics (Counter/Gauge/Histogram) — atomic storage owned
//     by the registry, incremented on the hot path; the Live runtime's
//     concurrent counters use these;
//   - read-through funcs (Func) — the registry reads a closure at
//     exposition time. The simulated systems keep their stat ints as
//     plain exported fields (the single-threaded simulator's idiom, and
//     what every existing test and oracle check reads) and register
//     each as a func, so the registry absorbs them without churning the
//     increment sites or the readers.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		funcs:    map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Func registers a read-through metric: the closure is evaluated at
// exposition time. Registering the same name again replaces the
// closure (a recovered component re-registers its fields).
func (r *Registry) Func(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = f
}

// Histogram returns the named histogram, creating it (unbounded exact
// mode) on first use. Use RegisterHistogram to install an existing
// histogram — e.g. a benchmark generator's latency series — under a
// registry name.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot reads every scalar metric (counters, gauges, funcs) into one
// name→value map. Histograms are omitted — use WriteText for the full
// exposition.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+len(r.funcs))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, f := range r.funcs {
		out[name] = f()
	}
	return out
}

// promName sanitizes a dotted metric name into the Prometheus exposition
// charset: dots (and anything else outside [a-zA-Z0-9_:]) become
// underscores. "stateflow.dlog.syncs" → "stateflow_dlog_syncs".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteText renders the registry in the Prometheus text exposition
// format (metric names sanitized to the exposition charset, histogram
// quantiles as summaries in seconds), sorted by name so the output is
// deterministic.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.RLock()
	type scalar struct {
		name string
		kind string
		val  int64
	}
	scalars := make([]scalar, 0, len(r.counters)+len(r.gauges)+len(r.funcs))
	for name, c := range r.counters {
		scalars = append(scalars, scalar{name, "counter", c.Value()})
	}
	for name, g := range r.gauges {
		scalars = append(scalars, scalar{name, "gauge", g.Value()})
	}
	for name, f := range r.funcs {
		scalars = append(scalars, scalar{name, "counter", f()})
	}
	hists := make([]string, 0, len(r.hists))
	for name := range r.hists {
		hists = append(hists, name)
	}
	snaps := make(map[string]HistSnapshot, len(hists))
	for _, name := range hists {
		snaps[name] = r.hists[name].Snapshot()
	}
	r.mu.RUnlock()

	sort.Slice(scalars, func(i, j int) bool { return scalars[i].name < scalars[j].name })
	for _, s := range scalars {
		n := promName(s.name)
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", n, s.kind, n, s.val)
	}
	sort.Strings(hists)
	secs := func(d time.Duration) float64 { return float64(d) / float64(time.Second) }
	for _, name := range hists {
		n, s := promName(name), snaps[name]
		fmt.Fprintf(w, "# TYPE %s summary\n", n)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %g\n", n, secs(s.P50))
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %g\n", n, secs(s.P99))
		fmt.Fprintf(w, "%s_sum %g\n", n, secs(s.Sum))
		fmt.Fprintf(w, "%s_count %d\n", n, s.Count)
	}
}

// Handler serves the registry as a Prometheus text exposition (the
// /metrics endpoint of LiveConfig.MetricsAddr).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// publishedExpvars guards against expvar.Publish's panic on duplicate
// names: tests (and restarted runtimes in one process) publish the same
// name more than once, and later publications re-point the closure.
var (
	publishedMu   sync.Mutex
	publishedVars = map[string]*registryVar{}
)

// registryVar is the expvar adapter: one expvar key holding the whole
// scalar snapshot of a registry as a JSON object.
type registryVar struct {
	mu sync.Mutex
	r  *Registry
}

// String implements expvar.Var.
func (v *registryVar) String() string {
	v.mu.Lock()
	r := v.r
	v.mu.Unlock()
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %d", name, snap[name])
	}
	b.WriteByte('}')
	return b.String()
}

// PublishExpvar exposes the registry's scalar snapshot as one expvar
// variable (visible on /debug/vars). Re-publishing the same name
// re-points the variable at this registry instead of panicking.
func (r *Registry) PublishExpvar(name string) {
	publishedMu.Lock()
	defer publishedMu.Unlock()
	if v, ok := publishedVars[name]; ok {
		v.mu.Lock()
		v.r = r
		v.mu.Unlock()
		return
	}
	v := &registryVar{r: r}
	publishedVars[name] = v
	expvar.Publish(name, v)
}
