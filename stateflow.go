// Package stateflow is a Go reproduction of "Stateful Entities:
// Object-oriented Cloud Applications as Distributed Dataflows" (Psarakis,
// Zorgdrager, Fragkoulis, Salvaneschi, Katsifodimos — CIDR 2023 /
// arXiv:2112.00710).
//
// It provides the paper's full pipeline: a Python-like stateful-entity DSL,
// the static-analysis and function-splitting compiler that lowers
// imperative, transactional object-oriented code to a stateful dataflow
// intermediate representation, and three execution targets for that IR —
//
//   - a Local runtime (§3) executing synchronously against in-process
//     state, for development and tests;
//   - StateFlow (§3), a transactional dataflow runtime with Aria-style
//     deterministic transaction batches, aligned snapshots and a
//     replayable source, deployed on a deterministic cluster simulation
//     (alongside a StateFun-model baseline that routes every event
//     through a Kafka-model broker, with no transactions and no locking);
//   - a Live runtime: worker goroutines own hash partitions of entity
//     state, for genuinely concurrent in-process execution.
//
// All targets share one caller surface, the Client interface: Entity
// returns a typed handle whose Call delivers a full Result and whose
// Submit returns a Future; Admin unifies state introspection and dataset
// preloading. Code written against Client runs unchanged on any backend:
//
//	prog := stateflow.MustCompile(src)
//	var c stateflow.Client = stateflow.NewLocalClient(prog) // or
//	// stateflow.NewSimulation(prog, cfg).Client(), or
//	// stateflow.NewLiveClient(prog, stateflow.LiveConfig{})
//	acct, _ := c.Create("Account", stateflow.Str("alice"), stateflow.Int(100))
//	res, _ := acct.Call("deposit", stateflow.Int(10))
//	fut := acct.Submit("read") // async; fut.Wait() for the outcome
//
// The examples/ directory shows the API end to end, and cmd/stateflow-bench
// regenerates every figure of the paper's evaluation.
package stateflow

import (
	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/runtime/local"
)

// Program is a compiled stateful-entity application: the enriched stateful
// dataflow graph of §2.5, portable across runtimes.
type Program = ir.Program

// Value is a DSL runtime value.
type Value = interp.Value

// EntityRef identifies a stateful entity instance (class + key).
type EntityRef = interp.EntityRef

// Value constructors, re-exported for application code.
var (
	// None is the None value.
	None = interp.None
)

// Int builds an int value.
func Int(i int64) Value { return interp.IntV(i) }

// Float builds a float value.
func Float(f float64) Value { return interp.FloatV(f) }

// Str builds a str value.
func Str(s string) Value { return interp.StrV(s) }

// Bool builds a bool value.
func Bool(b bool) Value { return interp.BoolV(b) }

// List builds a list value.
func List(elems ...Value) Value { return interp.ListV(elems...) }

// Ref builds an entity reference value.
func Ref(class, key string) Value { return interp.RefV(class, key) }

// Compile runs the full compiler pipeline (§2.1) over DSL source: parse,
// static analysis, function splitting, state-machine derivation, IR
// emission.
func Compile(src string) (*Program, error) { return compiler.Compile(src) }

// MustCompile is Compile panicking on error.
func MustCompile(src string) *Program { return compiler.MustCompile(src) }

// ---------------------------------------------------------------------------
// Local runtime

// Local is the paper's Local runtime (§3): the dataflow executes in
// process against in-memory state, for debugging, unit testing and
// validation. NewLocalClient (or LocalClient around an existing runtime)
// exposes it through the portable Client interface.
type Local = local.Runtime

// NewLocal builds a Local runtime for a compiled program.
func NewLocal(prog *Program) *Local { return local.New(prog) }
