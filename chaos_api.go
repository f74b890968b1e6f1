package stateflow

import (
	"maps"
	"time"

	"statefulentities.dev/stateflow/internal/chaos"
)

// ChaosPlan is a declarative, seed-reproducible fault schedule for a
// Simulation: crash/restart windows per component role plus per-edge
// message drop / duplicate / reorder-delay probabilities and latency
// spikes. Build one by hand or derive one from a seed with
// ChaosPlanFromSeed, then pass it to NewSimulation via WithChaos.
type ChaosPlan = chaos.Plan

// ChaosCrash is one crash/restart window sequence of a ChaosPlan.
type ChaosCrash = chaos.Crash

// ChaosEdge selects deliveries by (sender role, receiver role).
type ChaosEdge = chaos.Edge

// ChaosPerturbation is one per-edge perturbation spec of a ChaosPlan.
type ChaosPerturbation = chaos.Perturbation

// ChaosStats summarizes what an installed fault plan actually did:
// scheduled crash windows, applied drops/duplicates/delays, and the
// faults clamped off because the backend's failure contract does not
// cover them (the StateFun-model baseline, faithfully to the paper, has
// no recovery: crash and drop faults are clamped there).
type ChaosStats = chaos.Stats

// ChaosPlanFromSeed derives a full-strength fault plan deterministically
// from a seed: randomized worker crash windows plus drop, duplicate and
// latency-spike probabilities on every edge, all active within horizon.
// The same seed always yields the same plan, so a failing run reproduces
// from (workload seed, chaos seed) alone.
func ChaosPlanFromSeed(seed int64, horizon time.Duration) ChaosPlan {
	return chaos.FromSeed(seed, horizon)
}

// SimOption tunes a Simulation beyond SimConfig.
type SimOption func(*simOptions)

type simOptions struct {
	chaos *ChaosPlan
}

// WithChaos installs a fault plan on the simulation's cluster before it
// starts: the plan's crash windows and message perturbations are applied
// deterministically from the cluster's single RNG, so a chaos run is as
// reproducible as a fault-free one. Faults the backend's failure
// contract does not cover are clamped off (see ChaosStats).
func WithChaos(plan ChaosPlan) SimOption {
	return func(o *simOptions) { o.chaos = &plan }
}

// ChaosStats reports the installed fault plan's activity; the zero value
// is returned when the simulation runs without chaos.
func (s *Simulation) ChaosStats() ChaosStats {
	if s.chaos == nil {
		return ChaosStats{}
	}
	return s.chaos.Stats()
}

// ResponseDeliveries returns, per request id, how many raw response
// deliveries reached the client edge — before deduplication. On a
// fault-free run every count is exactly 1. Under chaos the oracle checks
// the accounting identity instead: the system's own sends per id
// (deliveries − injected duplicates + injected drops) must be exactly
// one, plus at most one replay per solicitation (client retries and
// injected request duplicates) — any excess is a duplicate the system
// emitted unprompted.
func (s *Simulation) ResponseDeliveries() map[string]int {
	return maps.Clone(s.client.deliveries)
}

// ClientRetries returns, per request id, how many times the client edge
// re-sent the request because no response had arrived within the retry
// interval (see SimConfig.ClientRetry). The chaos oracle uses it to bound
// legitimate response replays.
func (s *Simulation) ClientRetries() map[string]int {
	return maps.Clone(s.client.rx.Retries)
}
