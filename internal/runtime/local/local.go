// Package local implements the paper's Local runtime (§3): the complete
// dataflow graph executes in-process, for debugging, unit-testing and
// validating a StateFlow program before deploying it to a distributed
// runtime; the examples and the test suite use it as the semantic
// reference implementation.
//
// Entity state lives in slot-indexed rows laid out by the compiler
// (interp.Row), the same store and interpreter path the distributed
// runtimes execute on.
package local

import (
	"fmt"
	"strconv"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/state"
)

// Runtime executes a compiled program synchronously.
type Runtime struct {
	ex     *core.Executor
	states *state.Store
	nextID int
}

// New builds a local runtime for a program.
func New(prog *ir.Program) *Runtime {
	return &Runtime{ex: core.NewExecutor(prog), states: state.NewStore(prog.Layouts())}
}

type store struct{ r *Runtime }

// Lookup implements core.Store.
func (s store) Lookup(ref interp.EntityRef) (interp.State, bool) {
	st, ok := s.r.states.Lookup(ref)
	if !ok {
		return nil, false
	}
	return st, true
}

// Create implements core.Store.
func (s store) Create(ref interp.EntityRef, ctor func(interp.State) error) error {
	return s.r.states.Create(ref, ctor)
}

// Result is the outcome of a root invocation.
type Result struct {
	Value interp.Value
	Err   string
	// Hops is the number of operator-to-operator event transfers the call
	// chain needed (0 for a simple single-entity call). A StateFree
	// continuation runs where its call returned and is not a transfer.
	Hops int
}

// Invoke calls a method on an existing entity and drives the dataflow to
// completion.
func (r *Runtime) Invoke(class, key, method string, args ...interp.Value) (Result, error) {
	r.nextID++
	ev := core.Event{
		Kind:   core.EvInvoke,
		Req:    "req-" + strconv.Itoa(r.nextID),
		Target: interp.EntityRef{Class: class, Key: key},
		Method: method,
		Args:   args,
	}
	return r.drive(ev)
}

// Create instantiates a new entity via its constructor and returns its
// reference.
func (r *Runtime) Create(class string, args ...interp.Value) (interp.EntityRef, error) {
	key, err := r.ex.KeyForCtor(class, args)
	if err != nil {
		return interp.EntityRef{}, err
	}
	r.nextID++
	ev := core.Event{
		Kind:   core.EvInvoke,
		Req:    "req-" + strconv.Itoa(r.nextID),
		Target: interp.EntityRef{Class: class, Key: key},
		Method: "__init__",
		Args:   args,
	}
	res, err := r.drive(ev)
	if err != nil {
		return interp.EntityRef{}, err
	}
	if res.Err != "" {
		return interp.EntityRef{}, fmt.Errorf("%s", res.Err)
	}
	return res.Value.R, nil
}

// drive runs the root event through the dataflow to its response.
func (r *Runtime) drive(ev core.Event) (Result, error) {
	resp, _, err := r.ex.Drive(ev, store{r})
	if err != nil {
		return Result{}, err
	}
	return Result{Value: resp.Value, Err: resp.Err, Hops: resp.Hops}, nil
}

// State returns a copy of an entity's attribute map, for assertions.
func (r *Runtime) State(class, key string) (interp.MapState, bool) {
	st, ok := r.states.Lookup(interp.EntityRef{Class: class, Key: key})
	if !ok {
		return nil, false
	}
	return st.CloneMap(), true
}

// PreloadEntity installs the state an entity would have after __init__
// with the given args, bypassing the dataflow (dataset loading); it
// mirrors the simulated systems' PreloadEntity so one client surface can
// preload any runtime.
func (r *Runtime) PreloadEntity(class string, args ...interp.Value) error {
	ref, row, err := r.ex.InitRow(class, args)
	if err != nil {
		return err
	}
	r.states.Put(ref, row)
	return nil
}

// Keys lists the keys of all entities of a class, sorted.
func (r *Runtime) Keys(class string) []string { return r.states.Keys(class) }

// EncodeState serializes one entity's committed state canonically (the
// sorted attribute-name codec); differential tests compare these bytes
// across runtimes.
func (r *Runtime) EncodeState(class, key string) ([]byte, bool) {
	st, ok := r.states.Lookup(interp.EntityRef{Class: class, Key: key})
	if !ok {
		return nil, false
	}
	return st.Encoding(), true
}
