package stateflow

import (
	"statefulentities.dev/stateflow/internal/obs"
	sfsys "statefulentities.dev/stateflow/internal/systems/stateflow"
)

// SequencerStats are the sharded topology's sequencing-layer counters
// (global batches, scoped vs full fences, failovers, re-derived
// batches), snapshotted via Sharded().Sequencer().Stats(). Zero-valued
// on unsharded deployments.
type SequencerStats = sfsys.SequencerStats

// Tracer records transaction spans for export as Chrome trace-event JSON
// (chrome://tracing, Perfetto). Attach one to a Simulation via
// SimConfig.Tracer; a nil Tracer disables tracing at zero cost. Tracing
// is deterministically inert: spans are derived purely from virtual
// timestamps the runtime already computes, so a traced run's transcripts
// and committed state are byte-identical to an untraced one.
type Tracer = obs.Tracer

// NewTracer returns an empty trace buffer ready to attach to a
// Simulation.
func NewTracer() *Tracer { return obs.NewTracer() }

// FlightRecorder is a bounded ring of structured cluster events (epoch
// advances, crashes, reboots, fences, replay decisions). Every
// Simulation carries one; its Dump is appended to chaos-oracle failure
// reports so a failing seed arrives with its cluster timeline attached.
type FlightRecorder = obs.FlightRecorder

// FlightEvent is one recorded cluster event.
type FlightEvent = obs.FlightEvent

// NewFlightRecorder returns a flight recorder keeping the last capacity
// events (0 selects the default).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewFlightRecorder(capacity) }

// MetricsRegistry is a named-metric registry of read-through funcs, with
// Prometheus text exposition: components publish the integer fields of
// their stats structs under prefix + snake_case(field). Simulation.Metrics
// returns one covering the deployed backend; the Live runtime serves its
// own on LiveConfig.MetricsAddr.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
