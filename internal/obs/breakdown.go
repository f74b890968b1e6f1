package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Breakdown accumulates time attributed to named runtime components (the
// §4 overhead experiment). Attribution keys are free-form; the StateFlow
// worker uses keys like "routing", "object_construction",
// "function_execution", "state_serialization", "splitting_overhead".
type Breakdown struct {
	buckets map[string]time.Duration
	counts  map[string]int
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{buckets: map[string]time.Duration{}, counts: map[string]int{}}
}

// Add charges d to a component.
func (b *Breakdown) Add(component string, d time.Duration) {
	b.buckets[component] += d
	b.counts[component]++
}

// Get returns the accumulated time for a component.
func (b *Breakdown) Get(component string) time.Duration { return b.buckets[component] }

// Total returns the sum over all components.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.buckets {
		t += d
	}
	return t
}

// Fraction returns a component's share of the total (0 when empty).
func (b *Breakdown) Fraction(component string) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.buckets[component]) / float64(t)
}

// Components lists component names sorted by accumulated time descending.
func (b *Breakdown) Components() []string {
	out := make([]string, 0, len(b.buckets))
	for k := range b.buckets {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if b.buckets[out[i]] != b.buckets[out[j]] {
			return b.buckets[out[i]] > b.buckets[out[j]]
		}
		return out[i] < out[j]
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
	for k, d := range o.buckets {
		b.buckets[k] += d
		b.counts[k] += o.counts[k]
	}
}
