// Package chaos is a deterministic fault-injection engine for the cluster
// simulator: a seeded fault-plan compiler plus a runtime that turns a
// declarative Plan (crash/restart windows per component role, message
// drop / duplicate / reorder-delay probabilities, latency spikes) into
// scheduled virtual-time actions and per-delivery perturbations on a
// sim.Cluster.
//
// Determinism: a Plan is pure data, derived from a seed by FromSeed (or
// written by hand); the Engine draws every runtime decision (victim
// choice, per-message coin flips, spike magnitudes) from the cluster's
// single RNG. The same (cluster seed, plan) therefore produces exactly
// the same fault schedule, so any failing run is reproducible from two
// integers.
//
// Safety clamping: each simulated system declares, via Topology, which
// fault classes its written contract covers — which roles it can lose and
// recover (crash windows), which deliveries it detects and replays
// (drops), and which receivers deduplicate (duplicates). Faults outside
// the contract are clamped off and counted, never silently applied: the
// oracle checks the guarantees the system claims, not ones it never made.
package chaos

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/sim"
)

// Plan is a declarative, reproducible fault schedule.
type Plan struct {
	// Name labels the plan in logs and failure messages.
	Name string
	// Seed records the seed the plan was derived from (0 for hand-written
	// plans); purely informational, printed by String for reproduction.
	Seed int64
	// Horizon bounds fault activity: no perturbation applies and no crash
	// window opens after it, so a run always gets a quiet tail to
	// converge in. Zero means unbounded.
	Horizon time.Duration
	// Crashes are crash/restart windows per component role.
	Crashes []Crash
	// Perturbs are per-edge message perturbations; for each delivery the
	// first spec whose edge matches decides.
	Perturbs []Perturbation
}

// Crash is a sequence of crash/restart windows against one role.
type Crash struct {
	// Role selects the victim pool (resolved through Topology.Roles).
	Role string
	// Victims is how many distinct components of the role to target
	// (default 1; clamped to the pool size). Victims are drawn from the
	// cluster RNG at install time.
	Victims int
	// At is the first crash instant.
	At time.Duration
	// Downtime is the hold-down window length: the component stays dead —
	// and cannot be restarted by its peers — until At+Downtime.
	Downtime time.Duration
	// Every re-opens the window periodically (0: once).
	Every time.Duration
	// Count is the number of windows per victim (default 1).
	Count int
	// Pinned skips the RNG victim shuffle and targets the first Victims
	// components of the sorted pool. The draw matters: rand.Perm consumes
	// one value even for a single-member pool, so a shuffled crash
	// appended to an already-observed plan shifts every later latency and
	// perturbation draw and the whole schedule diverges from t=0. A
	// pinned crash installs with the cluster RNG untouched, so the
	// appending caller gets a byte-identical schedule prefix up to the
	// new instant — which is how the adversarial oracle aims a sequencer
	// crash at the midpoint of a fence window it observed in a previous
	// run. Mostly meaningful for single-member pools, where the pinned
	// choice is the only choice.
	Pinned bool
}

// Edge selects message deliveries by (sender role, receiver role); "*"
// matches any role. Components not named in Topology.Roles (external
// clients) have the pseudo-role "client".
type Edge struct {
	From, To string
}

// Matches reports whether the edge selects a (from, to) role pair.
func (e Edge) Matches(fromRole, toRole string) bool {
	return (e.From == "*" || e.From == fromRole) && (e.To == "*" || e.To == toRole)
}

// Perturbation is a probabilistic per-delivery fault spec for one edge.
// The probabilities partition one uniform draw: drop wins below DropP,
// duplicate below DropP+DupP, a latency spike below DropP+DupP+DelayP.
type Perturbation struct {
	Edge Edge
	// DropP loses the delivery (only where Topology.DropSafe allows).
	DropP float64
	// DupP delivers a second copy after DupDelay (only where
	// Topology.DupSafe allows). Delayed duplicates double as reordering:
	// the copy lands behind later traffic.
	DupP     float64
	DupDelay sim.Latency
	// DelayP adds a latency spike drawn from Delay. Spikes also reorder:
	// a spiked message falls behind messages sent after it.
	DelayP float64
	Delay  sim.Latency
}

// String renders the plan as a valid Go composite literal — paste it
// into a test (or stateflow.WithChaos) verbatim to reproduce a failing
// run.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos.Plan{Name: %q, Seed: %d, Horizon: %s", p.Name, p.Seed, goDur(p.Horizon))
	if len(p.Crashes) > 0 {
		b.WriteString(", Crashes: []chaos.Crash{")
		for i, c := range p.Crashes {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "{Role: %q, Victims: %d, At: %s, Downtime: %s, Every: %s, Count: %d",
				c.Role, c.Victims, goDur(c.At), goDur(c.Downtime), goDur(c.Every), c.Count)
			if c.Pinned {
				b.WriteString(", Pinned: true")
			}
			b.WriteString("}")
		}
		b.WriteString("}")
	}
	if len(p.Perturbs) > 0 {
		b.WriteString(", Perturbs: []chaos.Perturbation{")
		for i, pe := range p.Perturbs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "{Edge: chaos.Edge{From: %q, To: %q}, DropP: %g, DupP: %g, DupDelay: %s, DelayP: %g, Delay: %s}",
				pe.Edge.From, pe.Edge.To, pe.DropP, pe.DupP, goLatency(pe.DupDelay),
				pe.DelayP, goLatency(pe.Delay))
		}
		b.WriteString("}")
	}
	b.WriteString("}")
	return b.String()
}

// goDur renders a duration as a compilable Go expression, readable where
// the value allows it.
func goDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d%time.Second == 0:
		return fmt.Sprintf("%d * time.Second", d/time.Second)
	case d%time.Millisecond == 0:
		return fmt.Sprintf("%d * time.Millisecond", d/time.Millisecond)
	case d%time.Microsecond == 0:
		return fmt.Sprintf("%d * time.Microsecond", d/time.Microsecond)
	default:
		return fmt.Sprintf("%d /* %s */", int64(d), d)
	}
}

// goLatency renders a sim.Latency as a compilable Go literal.
func goLatency(l sim.Latency) string {
	return fmt.Sprintf("sim.Latency{Base: %s, Jitter: %s}", goDur(l.Base), goDur(l.Jitter))
}

// Topology is a simulated system's declaration of its failure contract:
// which components play which role, which roles it recovers after a
// crash, and which deliveries it may lose or see twice without violating
// its guarantees.
type Topology struct {
	// Roles maps role name -> component ids.
	Roles map[string][]string
	// Crashable marks roles whose crash+restart the system detects and
	// recovers from. Crash specs against other roles are clamped off.
	Crashable map[string]bool
	// DropSafe reports whether losing this delivery is within the failure
	// contract (the system detects the loss and replays). Nil: no drops.
	DropSafe func(from, to string, msg sim.Message) bool
	// DupSafe reports whether the receiver deduplicates this delivery.
	// Nil: no duplicates.
	DupSafe func(from, to string, msg sim.Message) bool
	// ResponseID extracts the request id from a client-bound response
	// message (ok=false for anything else). The engine uses it to account
	// the response duplicates and drops it injects per request id, so an
	// oracle can tell wire-level faults the plan created apart from
	// behavior the system itself exhibited (which would be a bug).
	ResponseID func(msg sim.Message) (string, bool)
	// RequestID extracts the request id from a client request message
	// (ok=false for anything else), for the symmetric per-id accounting of
	// injected request duplicates and drops: a duplicated request may
	// legitimately solicit one extra response replay from the egress.
	RequestID func(msg sim.Message) (string, bool)
}

// Stats summarizes what an Engine actually did (and declined to do).
type Stats struct {
	// CrashWindows counts scheduled crash windows.
	CrashWindows int
	// Dropped / Duplicated / Delayed count applied perturbations.
	Dropped, Duplicated, Delayed int
	// ClampedDrops / ClampedDups count perturbations the plan requested
	// but the topology's failure contract does not cover.
	ClampedDrops, ClampedDups int
	// Clamped lists plan elements disabled at install time (e.g. crash
	// specs against non-crashable roles), for visibility in logs.
	Clamped []string
	// DupResponses counts, per request id, client-bound response
	// duplicates the engine injected (see Topology.ResponseID);
	// DroppedResponses counts the response deliveries it lost. Together
	// with the client's retry count they bound the raw deliveries a
	// correct system may produce: the system's own sends per id
	// (deliveries - DupResponses + DroppedResponses) must not exceed one
	// plus the solicitations for a resend (client retries + DupRequests).
	DupResponses     map[string]int
	DroppedResponses map[string]int
	// DupRequests / DroppedRequests count injected request duplicates and
	// losses per id (see Topology.RequestID).
	DupRequests     map[string]int
	DroppedRequests map[string]int
}

// bump increments a per-id counter map, allocating it on first use.
func bump(m *map[string]int, id string) {
	if *m == nil {
		*m = map[string]int{}
	}
	(*m)[id]++
}

// Engine is an installed fault plan driving one cluster.
type Engine struct {
	plan    Plan
	topo    Topology
	cluster *sim.Cluster
	roles   map[string]string // component id -> role (precomputed)
	stats   Stats
}

// Install compiles a plan against a system's topology and arms it on the
// cluster: crash windows become ScheduleAt actions, perturbation specs
// become the cluster's delivery interceptor. Call before the run starts.
func Install(cluster *sim.Cluster, topo Topology, plan Plan) *Engine {
	e := &Engine{plan: plan, topo: topo, cluster: cluster, roles: map[string]string{}}
	for role, ids := range topo.Roles {
		for _, id := range ids {
			e.roles[id] = role
		}
	}
	for _, cr := range plan.Crashes {
		e.installCrash(cr)
	}
	if len(plan.Perturbs) > 0 {
		cluster.SetPerturb(e.perturbDelivery)
	}
	return e
}

// installCrash schedules one crash spec's windows.
func (e *Engine) installCrash(cr Crash) {
	ids := e.topo.Roles[cr.Role]
	if len(ids) == 0 {
		e.clamp("crash role %q: no components", cr.Role)
		return
	}
	if !e.topo.Crashable[cr.Role] {
		e.clamp("crash role %q: not crashable on this system", cr.Role)
		return
	}
	victims := cr.Victims
	if victims <= 0 {
		victims = 1
	}
	if victims > len(ids) {
		victims = len(ids)
	}
	count := cr.Count
	if count <= 0 {
		count = 1
	}
	// Deterministic victim choice from the cluster's RNG; sort first so
	// the pool order never depends on map iteration upstream. A pinned
	// crash takes the sorted pool head instead, consuming no RNG (see
	// Crash.Pinned).
	pool := append([]string(nil), ids...)
	sort.Strings(pool)
	var perm []int
	if cr.Pinned {
		perm = make([]int, len(pool))
		for i := range perm {
			perm[i] = i
		}
	} else {
		perm = e.cluster.Rand().Perm(len(pool))
	}
	for v := 0; v < victims; v++ {
		id := pool[perm[v]]
		for k := 0; k < count; k++ {
			at := cr.At + time.Duration(k)*cr.Every
			if k > 0 && cr.Every <= 0 {
				break
			}
			if e.plan.Horizon > 0 && at > e.plan.Horizon {
				break
			}
			end := at + cr.Downtime
			e.stats.CrashWindows++
			e.cluster.ScheduleCrash(id, at, end)
		}
	}
}

// perturbDelivery is the cluster's delivery interceptor: one uniform draw
// per delivery decides drop vs duplicate vs spike, clamped by the
// topology's failure contract.
func (e *Engine) perturbDelivery(from, to string, at time.Duration, msg sim.Message) sim.Perturb {
	if e.plan.Horizon > 0 && at > e.plan.Horizon {
		return sim.Perturb{}
	}
	fromRole, toRole := e.roleLookup(from), e.roleLookup(to)
	var spec *Perturbation
	for i := range e.plan.Perturbs {
		if e.plan.Perturbs[i].Edge.Matches(fromRole, toRole) {
			spec = &e.plan.Perturbs[i]
			break
		}
	}
	if spec == nil {
		return sim.Perturb{}
	}
	rng := e.cluster.Rand()
	r := rng.Float64()
	switch {
	case r < spec.DropP:
		if e.topo.DropSafe != nil && e.topo.DropSafe(from, to, msg) {
			e.stats.Dropped++
			if e.topo.ResponseID != nil {
				if id, ok := e.topo.ResponseID(msg); ok {
					bump(&e.stats.DroppedResponses, id)
				}
			}
			if e.topo.RequestID != nil {
				if id, ok := e.topo.RequestID(msg); ok {
					bump(&e.stats.DroppedRequests, id)
				}
			}
			return sim.Perturb{Drop: true}
		}
		e.stats.ClampedDrops++
	case r < spec.DropP+spec.DupP:
		if e.topo.DupSafe != nil && e.topo.DupSafe(from, to, msg) {
			e.stats.Duplicated++
			if e.topo.ResponseID != nil {
				if id, ok := e.topo.ResponseID(msg); ok {
					bump(&e.stats.DupResponses, id)
				}
			}
			if e.topo.RequestID != nil {
				if id, ok := e.topo.RequestID(msg); ok {
					bump(&e.stats.DupRequests, id)
				}
			}
			return sim.Perturb{Duplicate: true, DupDelay: spec.DupDelay.Sample(rng)}
		}
		e.stats.ClampedDups++
	case r < spec.DropP+spec.DupP+spec.DelayP:
		e.stats.Delayed++
		return sim.Perturb{Delay: spec.Delay.Sample(rng)}
	}
	return sim.Perturb{}
}

func (e *Engine) roleLookup(id string) string {
	if r, ok := e.roles[id]; ok {
		return r
	}
	return "client"
}

func (e *Engine) clamp(format string, args ...any) {
	e.stats.Clamped = append(e.stats.Clamped, fmt.Sprintf(format, args...))
}

// Stats returns a copy of the engine's activity counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Clamped = append([]string(nil), e.stats.Clamped...)
	s.DupResponses = maps.Clone(e.stats.DupResponses)
	s.DroppedResponses = maps.Clone(e.stats.DroppedResponses)
	s.DupRequests = maps.Clone(e.stats.DupRequests)
	s.DroppedRequests = maps.Clone(e.stats.DroppedRequests)
	return s
}

// ---------------------------------------------------------------------------
// Seeded plan generation

// FromSeed derives a full-strength fault plan deterministically from a
// seed: 1-3 repeated worker crash windows plus one coordinator crash
// window at randomized instants, and per-edge drop, duplicate and
// latency-spike probabilities — aggressive on the client edge (where
// retry + response-replay carry the contract), sub-percent inside the
// system. The horizon bounds fault activity; crash windows open in the
// first ~60% of it so recovery always has room to finish.
//
// The plan is pure data: generating it consumes nothing from the cluster
// RNG, so the same (workload seed, chaos seed) pair replays exactly.
//
// Systems whose contract does not cover a fault class clamp it at install
// time (the StateFun baseline clamps every crash window and drop; a
// StateFlow deployment without its durable log clamps the coordinator
// window).
//
// Horizons below 100ms (including zero) are raised to 100ms: the
// generated schedule needs room for a crash window plus its recovery, so
// a seeded plan is always bounded — pass a hand-written Plan for
// unbounded fault activity.
func FromSeed(seed int64, horizon time.Duration) Plan {
	if horizon < 100*time.Millisecond {
		horizon = 100 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	p := Plan{
		Name:    fmt.Sprintf("seed-%d", seed),
		Seed:    seed,
		Horizon: horizon,
	}
	active := time.Duration(float64(horizon) * 0.6)
	windows := 1 + rng.Intn(3)
	for i := 0; i < windows; i++ {
		at := time.Duration(rng.Int63n(int64(active)*3/4)) + active/8
		downtime := time.Duration(rng.Int63n(int64(40*time.Millisecond))) + 10*time.Millisecond
		if at+downtime > horizon {
			// Keep the window inside the horizon so the quiet tail really
			// is quiet (reachable when a tiny horizon was raised to the
			// minimum).
			at = horizon - downtime
		}
		p.Crashes = append(p.Crashes, Crash{
			Role:     "worker",
			Victims:  1 + rng.Intn(2),
			At:       at,
			Downtime: downtime,
			Every:    time.Duration(rng.Int63n(int64(150*time.Millisecond))) + 100*time.Millisecond,
			Count:    1 + rng.Intn(2),
		})
	}
	// A recurring coordinator crash window: every seed exercises the
	// durable-log restart path (clamped off on systems without one).
	// Several instants per plan, spread so their phases within the epoch
	// cycle decorrelate: with the pipelined schedule the commit slot is
	// occupied a large fraction of each epoch, so a handful of
	// independent instants all but guarantees at least one reboot lands
	// with two epochs in flight — the overlap window whose recovery path
	// (replayed responses, re-executed open epoch, fenced volatile
	// advance) the sweep must exercise, not merely permit.
	{
		downtime := time.Duration(rng.Int63n(int64(12*time.Millisecond))) + 8*time.Millisecond
		at := active/8 + time.Duration(rng.Int63n(int64(active)/2))
		if at+downtime > horizon {
			at = horizon - downtime
		}
		p.Crashes = append(p.Crashes, Crash{
			Role:     "coordinator",
			Victims:  1,
			At:       at,
			Downtime: downtime,
			Every:    downtime + 15*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond))),
			Count:    5,
		})
	}
	// Drop/dup rates are per message: a batch of T transactions crosses
	// ~4T edges, so even sub-percent rates hit most batches. Rates much
	// above 1% push large batches into permanent replay during the fault
	// window — chaotic, but uninformative. The client edge takes several
	// percent of drops instead: each lost request or response there must
	// be healed by one retry/replay round trip, which is exactly the
	// machinery the oracle wants under load. First match wins, so the
	// client-edge specs precede the catch-all.
	p.Perturbs = []Perturbation{
		{
			Edge:     Edge{From: "*", To: "client"},
			DropP:    0.03 + rng.Float64()*0.07,
			DupP:     0.01 + rng.Float64()*0.02,
			DupDelay: sim.Latency{Base: 0, Jitter: 2 * time.Millisecond},
			DelayP:   0.02 + rng.Float64()*0.03,
			Delay: sim.Latency{
				Base:   time.Duration(rng.Int63n(int64(2 * time.Millisecond))),
				Jitter: time.Duration(rng.Int63n(int64(6*time.Millisecond))) + time.Millisecond,
			},
		},
		{
			Edge:     Edge{From: "client", To: "*"},
			DropP:    0.03 + rng.Float64()*0.07,
			DupP:     0.01 + rng.Float64()*0.02,
			DupDelay: sim.Latency{Base: 0, Jitter: 2 * time.Millisecond},
			DelayP:   0.02 + rng.Float64()*0.03,
			Delay: sim.Latency{
				Base:   time.Duration(rng.Int63n(int64(2 * time.Millisecond))),
				Jitter: time.Duration(rng.Int63n(int64(6*time.Millisecond))) + time.Millisecond,
			},
		},
		{
			Edge:     Edge{From: "*", To: "*"},
			DropP:    0.002 + rng.Float64()*0.008,
			DupP:     0.002 + rng.Float64()*0.008,
			DupDelay: sim.Latency{Base: 0, Jitter: 2 * time.Millisecond},
			DelayP:   0.01 + rng.Float64()*0.04,
			Delay: sim.Latency{
				Base:   time.Duration(rng.Int63n(int64(2 * time.Millisecond))),
				Jitter: time.Duration(rng.Int63n(int64(8*time.Millisecond))) + time.Millisecond,
			},
		},
	}
	// A sequencer crash window, drawn strictly after every other draw so
	// the plan for any given seed is unchanged from older releases up to
	// this appended entry, and Pinned so installing it consumes no
	// cluster RNG either (unsharded topologies additionally clamp it: no
	// sequencer role). Several instants per plan for the same reason as
	// the coordinator window above: the sequencer holds fences for a
	// large fraction of each global batch, so a handful of spread
	// instants all but guarantees at least one reboot lands inside a
	// fenced window — the failover path (fence re-derivation, apply
	// roll-forward, abandoned-batch release) the sweep must exercise.
	{
		downtime := time.Duration(rng.Int63n(int64(12*time.Millisecond))) + 8*time.Millisecond
		at := active/8 + time.Duration(rng.Int63n(int64(active)/2))
		if at+downtime > horizon {
			at = horizon - downtime
		}
		p.Crashes = append(p.Crashes, Crash{
			Role:     "sequencer",
			Victims:  1,
			At:       at,
			Downtime: downtime,
			Every:    downtime + 12*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond))),
			Count:    4,
			Pinned:   true,
		})
	}
	return p
}
