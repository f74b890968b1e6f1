package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// FlightEvent is one structured cluster event in the flight recorder's
// ring: what happened, where, and when (virtual time under the
// simulator).
type FlightEvent struct {
	// Seq is the event's position in the full recorded stream (older
	// events may have been evicted from the bounded ring).
	Seq int64
	// At is the cluster time of the event.
	At time.Duration
	// Node is the component the event concerns ("sf-coord", "sf1-w2",
	// "sf-seq", …).
	Node string
	// Kind classifies the event: "crash", "reboot", "restore",
	// "epoch.advance", "recovery", "replay.drained", "fence", "unfence",
	// "global.batch", …
	Kind string
	// Detail is a human-readable elaboration.
	Detail string
}

// FlightRecorder keeps a bounded ring of cluster events — epoch
// advances, crashes and reboots, fence/unfence transitions, recovery
// replay decisions — so a failing chaos or linearizability run can dump
// a causal timeline of what the cluster actually did alongside the
// reproducing seed and plan. Recording is allocation-bounded and
// deterministic; a nil *FlightRecorder accepts every call as a no-op.
//
// Safe for concurrent use: the package's simulations record from one
// goroutine, but the type is public (stateflow.FlightRecorder), so a caller
// may share one recorder between simulations it runs concurrently, or read
// it while one runs.
type FlightRecorder struct {
	mu   sync.Mutex
	cap  int
	buf  []FlightEvent
	head int   // index of the oldest event when the ring is full
	seq  int64 // total events ever recorded
}

// DefaultFlightCapacity is the ring size used when NewFlightRecorder is
// given a non-positive capacity: enough to hold the full fault window
// of a chaos run while staying negligible next to the run itself.
const DefaultFlightCapacity = 512

// NewFlightRecorder returns a recorder retaining the last capacity
// events (DefaultFlightCapacity if capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{cap: capacity}
}

// Record appends one event, evicting the oldest when the ring is full.
func (f *FlightRecorder) Record(at time.Duration, node, kind, detail string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ev := FlightEvent{Seq: f.seq, At: at, Node: node, Kind: kind, Detail: detail}
	f.seq++
	if len(f.buf) < f.cap {
		f.buf = append(f.buf, ev)
		return
	}
	f.buf[f.head] = ev
	f.head = (f.head + 1) % f.cap
}

// Enabled reports whether the recorder keeps events; a nil recorder does
// not. Recordf's variadic arguments are boxed before it can tell, so a
// hot path checks Enabled first, as with Tracer.Enabled.
func (f *FlightRecorder) Enabled() bool { return f != nil }

// Recordf is Record with a formatted detail.
func (f *FlightRecorder) Recordf(at time.Duration, node, kind, format string, args ...any) {
	if f == nil {
		return
	}
	f.Record(at, node, kind, fmt.Sprintf(format, args...))
}

// Total returns the number of events ever recorded, retained or not.
func (f *FlightRecorder) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Events returns the retained events oldest-first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.buf))
	out = append(out, f.buf[f.head:]...)
	out = append(out, f.buf[:f.head]...)
	return out
}

// Dump renders the retained timeline, oldest-first — the block the
// oracles attach to a failure next to the reproducing seed and plan.
// Empty string when nothing was recorded.
func (f *FlightRecorder) Dump() string {
	events := f.Events()
	if len(events) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder timeline (last %d of %d events):\n", len(events), f.Total())
	for _, e := range events {
		fmt.Fprintf(&b, "  [%5d] %12s  %-12s %-14s %s\n",
			e.Seq, e.At, e.Node, e.Kind, e.Detail)
	}
	return b.String()
}
