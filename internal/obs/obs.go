// Package obs is the observability substrate of the reproduction: a
// dependency-free metrics registry (read-through funcs over components'
// stats structs under one naming rule, with Prometheus-style text
// exposition and expvar publishing), a latency histogram, a transaction
// tracer emitting Chrome trace-event JSON, and a flight recorder — a
// bounded ring of structured cluster events the chaos and
// linearizability oracles dump on failure.
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
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"unicode"
)

// Registry is a named-metric registry with stable dotted names
// ("stateflow.coordinator.fallback_rounds", "dlog.syncs", …). Every metric
// is a read-through func: the registry stores no values and reads each
// closure when it is exposed, so registering costs the measured path
// nothing. Components keep their counters as the integer fields of a
// stats struct and publish them with Fields, which names each one by a
// single rule; Func registers the few derived values. Exposition walks
// every metric in sorted name order, so the output is deterministic for a
// given registry state.
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: map[string]func() int64{}}
}

// Func registers a read-through metric: the closure is evaluated at
// exposition time. Registering the same name again replaces the
// closure (a recovered component re-registers its fields).
func (r *Registry) Func(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = f
}

// Fields registers one metric per exported field of signed integer kind
// (int, int64, time.Duration, …) of the struct read returns, named prefix +
// the field's name in snake case: CorruptLogRecords under "coordinator."
// is "coordinator.corrupt_log_records". read may instead return a slice
// of such structs (one per worker, say); each metric then sums its field
// over the elements. read is called once here to learn the type and again
// at every exposition, so it must return the current values.
func (r *Registry) Fields(prefix string, read func() any) {
	t := reflect.TypeOf(read())
	if t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() || !reflect.Zero(f.Type).CanInt() {
			continue
		}
		r.Func(prefix+snakeCase(f.Name), func() int64 {
			v := reflect.ValueOf(read())
			if v.Kind() != reflect.Slice {
				return v.Field(i).Int()
			}
			var n int64
			for j := range v.Len() {
				n += v.Index(j).Field(i).Int()
			}
			return n
		})
	}
}

// snakeCase spells a Go field name in lower snake case:
// FallbackDriftDemotions → fallback_drift_demotions.
func snakeCase(name string) string {
	var b strings.Builder
	for i, c := range name {
		if unicode.IsUpper(c) && i > 0 {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}

// Snapshot reads every metric into one name→value map.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.funcs))
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
// format (metric names sanitized to the exposition charset), sorted by
// name so the output is deterministic.
func (r *Registry) WriteText(w io.Writer) {
	snap := r.Snapshot()
	for _, name := range slices.Sorted(maps.Keys(snap)) {
		n := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, snap[name])
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
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range slices.Sorted(maps.Keys(snap)) {
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
