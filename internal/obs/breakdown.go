package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Component is one of the runtime components the §4 overhead experiment
// attributes CPU time to.
type Component uint8

const (
	EventDeserialization Component = iota
	ObjectConstruction
	SplittingInstrumentation
	FunctionExecution
	TxnValidation
	StateSerialization
	TxnCommit
	SnapshotPersistence
	numComponents
)

var componentNames = [numComponents]string{
	EventDeserialization:     "event_deserialization",
	ObjectConstruction:       "object_construction",
	SplittingInstrumentation: "splitting_instrumentation",
	FunctionExecution:        "function_execution",
	TxnValidation:            "txn_validation",
	StateSerialization:       "state_serialization",
	TxnCommit:                "txn_commit",
	SnapshotPersistence:      "snapshot_persistence",
}

func (c Component) String() string { return componentNames[c] }

// Breakdown accumulates time attributed to runtime components (the §4
// overhead experiment). The StateFlow worker charges it once per cost-model
// ctx.Work, so the event path indexes a fixed array; component names appear
// only when a table is rendered.
type Breakdown struct {
	buckets [numComponents]time.Duration
	counts  [numComponents]int
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown { return &Breakdown{} }

// Add charges d to a component.
func (b *Breakdown) Add(c Component, d time.Duration) {
	b.buckets[c] += d
	b.counts[c]++
}

// Get returns the accumulated time for a component.
func (b *Breakdown) Get(c Component) time.Duration { return b.buckets[c] }

// Total returns the sum over all components.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.buckets {
		t += d
	}
	return t
}

// Fraction returns a component's share of the total (0 when empty).
func (b *Breakdown) Fraction(c Component) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.buckets[c]) / float64(t)
}

// Components lists the components charged at least once, sorted by
// accumulated time descending (ties by name).
func (b *Breakdown) Components() []Component {
	var out []Component
	for c := Component(0); c < numComponents; c++ {
		if b.counts[c] > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if b.buckets[out[i]] != b.buckets[out[j]] {
			return b.buckets[out[i]] > b.buckets[out[j]]
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// Table renders the breakdown as aligned rows of component, total time and
// percentage — the table shape of the §4 overhead experiment.
func (b *Breakdown) Table() string {
	var sb strings.Builder
	total := b.Total()
	fmt.Fprintf(&sb, "%-28s %14s %8s\n", "component", "time", "share")
	for _, c := range b.Components() {
		fmt.Fprintf(&sb, "%-28s %14s %7.2f%%\n",
			c, b.buckets[c].Round(time.Microsecond), 100*b.Fraction(c))
	}
	fmt.Fprintf(&sb, "%-28s %14s %8s\n", "total", total.Round(time.Microsecond), "100.00%")
	return sb.String()
}

// Merge adds another breakdown into this one.
func (b *Breakdown) Merge(o *Breakdown) {
	for c := range o.buckets {
		b.buckets[c] += o.buckets[c]
		b.counts[c] += o.counts[c]
	}
}
