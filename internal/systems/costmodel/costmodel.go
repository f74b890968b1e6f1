// Package costmodel centralizes the simulated latency and CPU-cost
// parameters of both runtimes. The constants are calibrated so the
// simulated deployment reproduces the shape of the paper's evaluation on
// its 14-CPU testbed (§4): sub-100ms request latencies, StateFun paying a
// broker roundtrip plus a remote-function network hop per call, StateFlow
// paying an epoch-commit wait, and program-transformation overhead well
// under 1% of total event time.
package costmodel

import (
	"time"

	"statefulentities.dev/stateflow/internal/sim"
)

// Costs parameterizes one simulated deployment.
type Costs struct {
	// Network links.
	ClientLink sim.Latency // client <-> system edge (ingress/egress)
	WorkerLink sim.Latency // worker <-> worker / coordinator
	BrokerLink sim.Latency // producer -> broker (Kafka produce path)
	BrokerPoll sim.Latency // broker -> consumer delivery (poll/batching delay)
	RemoteFn   sim.Latency // Flink worker <-> remote function runtime

	// CPU costs charged on workers per event. An event may run several
	// blocks of a split method — a Jump or Branch successor, or a StateFree
	// continuation that core.complete runs where its call returned instead
	// of resuming the caller's operator — and every block after its first
	// is priced by the event's SplitOverhead alone: no second
	// DeserializeCPU, ConstructCPU or ExecuteCPU.
	RoutingCPU     time.Duration // ingress/egress routing + dispatch
	DeserializeCPU time.Duration // event decode
	ConstructCPU   time.Duration // entity object construction, fixed part
	ExecuteCPU     time.Duration // function block execution, fixed part
	SplitOverhead  time.Duration // instrumentation added by function splitting
	StateByteCPU   time.Duration // per-byte state (de)serialization cost
	CommitCPU      time.Duration // per-transaction validation/commit work
	BrokerCPU      time.Duration // broker work per produced/consumed record

	// FallbackCPU prices Aria's deterministic fallback phase, per
	// transaction: shipping one worker's reservation-set footprint along the
	// call chain (worker side) and one node's share of the dependency-graph
	// scheduling pass (coordinator side). Re-executed call chains charge
	// the ordinary execution costs on top.
	FallbackCPU time.Duration

	// PipelineCPU prices the coordinator's epoch-pipeline bookkeeping:
	// promoting a fully executed batch into the commit stage while the
	// next epoch opens (stage-table updates, per-epoch demultiplexing).
	// Charged only on the pipelined path; the serial coordinator never
	// pays it.
	PipelineCPU time.Duration

	// Durable-log (coordinator WAL) costs.
	LogAppendCPU time.Duration // encode + buffered append of one record
	LogSyncCPU   time.Duration // blocking fsync (epoch records, checkpoints)
	// LogGroupDelay is the group-commit window: responses release when the
	// batched fsync covering their delivered-records completes, this long
	// after the batch applied.
	LogGroupDelay time.Duration

	// MaxStateBytes caps the per-event state cost accounting (guards the
	// simulation against pathological states).
	MaxStateBytes int
}

// Default returns the calibrated deployment parameters.
func Default() Costs {
	return Costs{
		ClientLink: sim.Latency{Base: 500 * time.Microsecond, Jitter: 300 * time.Microsecond},
		WorkerLink: sim.Latency{Base: 250 * time.Microsecond, Jitter: 150 * time.Microsecond},
		BrokerLink: sim.Latency{Base: 600 * time.Microsecond, Jitter: 300 * time.Microsecond},
		// The dominant Kafka cost is not the wire but consumer
		// poll/batching delay; this is what makes every StateFun hop
		// expensive (§4: "the cost of reads and writes are the same due to
		// the network costs").
		BrokerPoll: sim.Latency{Base: 9 * time.Millisecond, Jitter: 7 * time.Millisecond},
		RemoteFn:   sim.Latency{Base: 1200 * time.Microsecond, Jitter: 600 * time.Microsecond},

		RoutingCPU:     15 * time.Microsecond,
		DeserializeCPU: 20 * time.Microsecond,
		// Construct/execute reflect CPython-level function execution (both
		// runtimes execute Python in the paper).
		ConstructCPU:  200 * time.Microsecond,
		ExecuteCPU:    440 * time.Microsecond,
		SplitOverhead: 900 * time.Nanosecond,
		StateByteCPU:  4 * time.Nanosecond,
		CommitCPU:     8 * time.Microsecond,
		FallbackCPU:   3 * time.Microsecond,
		PipelineCPU:   1 * time.Microsecond,
		BrokerCPU:     12 * time.Microsecond,
		// WAL: appends hit the page cache; the blocking fsync cost and the
		// group-commit window are calibrated to a datacenter NVMe device
		// (sequential append, one flush per batch).
		LogAppendCPU:  2 * time.Microsecond,
		LogSyncCPU:    30 * time.Microsecond,
		LogGroupDelay: 800 * time.Microsecond,
		MaxStateBytes: 1 << 20,
	}
}

// StateCPU returns the CPU charge for serializing/deserializing a state of
// the given encoded size.
func (c Costs) StateCPU(bytes int) time.Duration {
	if bytes > c.MaxStateBytes {
		bytes = c.MaxStateBytes
	}
	return time.Duration(bytes) * c.StateByteCPU
}
