package bench

import (
	"fmt"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/statefun"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// Deployment names what a run deploys; everything else about a run is its
// dataset, its clients and the row it reads off the Harness afterwards.
type Deployment struct {
	Seed   int64
	System string // "stateflow" or "statefun"
	// Program is the compiled entity program (nil: the built-in YCSB one).
	Program *ir.Program
	// Config edits stateflow.DefaultConfig() before the StateFlow runtime
	// deploys (nil: the defaults); the StateFun model has no knobs.
	Config func(*stateflow.Config)
}

// Harness is one simulated deployment under measurement and the only place
// the experiments' plumbing lives: Deploy builds the cluster and the
// backend, Preload installs the dataset, Generate / Script attach clients,
// and Run / Drain seal the preload, start the cluster and drive it. The
// experiment runners and cmd/stateflow-run all go through it.
type Harness struct {
	Cluster *sim.Cluster
	// Backend is the deployed system as clients and chaos plans see it.
	Backend sysapi.Backend
	// SF is the StateFlow deployment behind Backend, nil on the StateFun
	// model. One handle serves both topologies: counters are read per shard
	// over SF.Shards() (one entry when unsharded), the routing split from
	// SF.Sequencer() (nil when unsharded).
	SF *stateflow.ShardedSystem

	scripts []*Script
}

// Script is a scripted client of a run and the virtual time (1 ms
// resolution) at which Drain saw its last response arrive.
type Script struct {
	*sysapi.ScriptClient
	DrainedAt time.Duration
}

// drainGrace is how long an open-loop run continues past its horizon so
// the requests still in flight there are answered.
const drainGrace = 10 * time.Second

// Deploy builds a fresh cluster and registers the backend on it.
func Deploy(d Deployment) (*Harness, error) {
	prog := d.Program
	if prog == nil {
		var err error
		if prog, err = compiler.Compile(ycsb.Program()); err != nil {
			return nil, err
		}
	}
	h := &Harness{Cluster: sim.New(d.Seed)}
	switch d.System {
	case "stateflow":
		cfg := stateflow.DefaultConfig()
		if d.Config != nil {
			d.Config(&cfg)
		}
		h.SF = stateflow.New(h.Cluster, prog, cfg)
		h.Backend = h.SF
	case "statefun":
		h.Backend = statefun.New(h.Cluster, prog, statefun.DefaultConfig())
	default:
		return nil, fmt.Errorf("bench: unknown system %q", d.System)
	}
	return h, nil
}

// Preload installs records 0..n-1 of a dataset (ycsb.Loader, or any
// constructor-argument enumeration of the same shape).
func (h *Harness) Preload(n int, load func(i int) (class string, args []interp.Value)) error {
	for i := 0; i < n; i++ {
		class, args := load(i)
		if err := h.Backend.PreloadEntity(class, args...); err != nil {
			return err
		}
	}
	return nil
}

// Generate attaches the open-loop client: Poisson arrivals at rate until
// horizon, latencies recorded after warmUp. Drive it with Run.
func (h *Harness) Generate(rate float64, horizon, warmUp time.Duration, next func(i int) sysapi.Request) *sysapi.Generator {
	gen := sysapi.NewGenerator("client", h.Backend, rate, horizon, warmUp, next)
	h.Cluster.Add("client", gen)
	return gen
}

// Script attaches a scripted client. Drive it with Drain.
func (h *Harness) Script(id string, script []sysapi.Scheduled) *Script {
	s := &Script{ScriptClient: sysapi.NewScriptClient(id, h.Backend, script)}
	h.Cluster.Add(id, s.ScriptClient)
	h.scripts = append(h.scripts, s)
	return s
}

// start seals the preloaded dataset — always, so a recovery before the
// first periodic snapshot rolls back to the loaded state rather than to
// empty stores — and starts every component.
func (h *Harness) start() {
	if h.SF != nil {
		h.SF.CheckpointPreloadedState()
	}
	h.Cluster.Start()
}

// Run starts the deployment and runs it to the given virtual time.
func (h *Harness) Run(until time.Duration) {
	h.start()
	h.Cluster.RunUntil(until)
}

// Drain starts the deployment and steps it a millisecond at a time until
// every scripted request has its response, stamping each Script as it
// completes; it fails if one is still waiting at the deadline.
func (h *Harness) Drain(deadline time.Duration) error {
	h.start()
	for {
		h.Cluster.RunUntil(h.Cluster.Now() + time.Millisecond)
		var waiting *Script
		for _, s := range h.scripts {
			if s.DrainedAt == 0 && s.Done == len(s.Script) {
				s.DrainedAt = h.Cluster.Now()
			}
			if s.DrainedAt == 0 {
				waiting = s
			}
		}
		if waiting == nil {
			return nil
		}
		if h.Cluster.Now() >= deadline {
			return fmt.Errorf("bench: %s has %d/%d responses by %s", waiting.ID, waiting.Done, len(waiting.Script), deadline)
		}
	}
}

// runYCSB preloads the options' YCSB dataset, offers the mix open-loop at
// rate over keys drawn from dist, and runs to the horizon plus drainGrace.
func (h *Harness) runYCSB(mix ycsb.Mix, dist string, rate float64, opt Options) (*sysapi.Generator, error) {
	if err := h.Preload(opt.Records, ycsb.Loader(opt.Records, opt.PayloadBytes)); err != nil {
		return nil, err
	}
	chooser, err := ycsb.ChooserByName(dist, opt.Records)
	if err != nil {
		return nil, err
	}
	wgen := ycsb.NewGenerator(mix, chooser, opt.Records, opt.Seed+17, "q")
	gen := h.Generate(rate, opt.Duration, opt.WarmUp, wgen.Next)
	h.Run(opt.Duration + drainGrace)
	return gen, nil
}

// call is one script entry: a method call on a YCSB account at a virtual
// time, its latency series named after the method.
func call(at time.Duration, id, key, method string, args ...interp.Value) sysapi.Scheduled {
	return sysapi.Scheduled{At: at, Req: sysapi.Request{
		Req:    id,
		Target: interp.EntityRef{Class: "Account", Key: key},
		Method: method,
		Args:   args,
		Kind:   method,
	}}
}
