// Package live executes a compiled program on a real concurrent runtime:
// worker goroutines own hash partitions of every operator's state and
// exchange dataflow events over channels — the in-process analogue of the
// distributed deployment, complementing the deterministic simulator with
// true parallel execution.
//
// Semantics match the StateFun-model baseline (§3): each partition
// processes its mailbox serially, so single-entity operations are
// linearizable per key, while cross-entity chains interleave without
// transactional isolation. (The Aria-transactional variant lives on the
// simulated StateFlow runtime, where the protocol is deterministic and
// fully testable; the live runtime demonstrates that the same IR drives a
// genuinely concurrent system.)
//
// Clients drive the runtime synchronously via Invoke or asynchronously via
// Submit, which returns a Pending future. Shutdown is loss-free for
// callers: Close fails every still-pending request with ErrClosed instead
// of leaving its waiter blocked.
package live

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/state"
)

// ErrClosed is the transport error reported for requests that raced or
// followed Close: the runtime can no longer complete them.
var ErrClosed = errors.New("live: runtime closed")

// Config parameterizes the live runtime.
type Config struct {
	// Workers is the number of partition-owning goroutines (default 4).
	Workers int
	// MailboxDepth is the per-worker channel capacity (default 1024).
	MailboxDepth int
	// JournalPath enables the durable response journal: every completed
	// request's outcome (id, value, application error) is appended to a
	// file-backed dlog and fsynced before the caller observes it. A new
	// runtime opened on the same path re-serves journaled outcomes for
	// client-supplied request ids instead of re-executing them — the
	// response-replay egress of the Live runtime, surviving process
	// restarts. Empty: no journal.
	JournalPath string
	// JournalCheckpointEvery compacts the journal after this many
	// appended outcomes: the retained replay entries are folded into a
	// single checkpoint record and the appended frames behind them are
	// discarded, bounding the file (default 1024; negative disables
	// compaction entirely).
	JournalCheckpointEvery int
	// JournalRetention bounds how long a journaled outcome stays
	// replayable: entries whose record timestamp is older than this are
	// pruned at the next compaction, from the file and from the in-memory
	// replay map alike — a retry arriving after the window re-executes,
	// which is the documented exactly-once boundary (the same per-source
	// floor contract the simulated egress keeps). Zero keeps every
	// outcome forever.
	JournalRetention time.Duration
	// MetricsAddr, when non-empty, serves the runtime's metric registry
	// over HTTP on this address: Prometheus text exposition on /metrics,
	// the standard expvar JSON on /debug/vars. ":0" picks a free port —
	// read the bound address back with Runtime.MetricsAddr. The registry
	// itself is always live (see Runtime.Metrics); the address only adds
	// the HTTP listener.
	MetricsAddr string
}

// journalResponse is the journal's record kind (dlog reserves kind 0).
const journalResponse dlog.Kind = 1

// Runtime is a running live deployment. Close it when done.
type Runtime struct {
	ex      *core.Executor
	workers []*worker
	pending sync.Map // req id -> *Pending
	nextReq atomic.Int64
	closed  atomic.Bool
	// journal, when enabled, persists every completed outcome; replay
	// holds journaled outcomes (from this and previous incarnations) that
	// are re-served by *caller-supplied* request ids without re-execution.
	// incarnation makes minted ids unique across processes sharing a
	// journal, so an auto-minted id can never collide with a journaled
	// one from an earlier incarnation.
	journal     *dlog.FileLog
	replay      sync.Map // req id -> journalEntry
	incarnation string
	journalErrs atomic.Int64
	// jmu serializes journal appends (read side) against compaction
	// (write side): Checkpoint atomically replaces the file with the
	// retained replay entries, so an append racing the swap would vanish
	// from the durable image while staying in the replay map.
	jmu              sync.RWMutex
	retention        time.Duration
	checkpointEvery  int
	appendsSinceCkpt atomic.Int64
	// quit broadcasts shutdown: senders and idle workers select on it, so
	// no channel is ever closed while sends race it.
	quit chan struct{}
	wg   sync.WaitGroup
	// metrics is the runtime's registry (always built; the HTTP listener
	// below is optional). It reads through to the runtime's atomics and the
	// journal's stats at exposition time; submits and replays count the
	// submission path's calls and journal re-serves.
	metrics   *obs.Registry
	submits   atomic.Int64
	replays   atomic.Int64
	metricsLn net.Listener
	metricsWg sync.WaitGroup
}

type result struct {
	value interp.Value
	err   string // application-level error
	fail  error  // transport-level error (shutdown)
}

// journalEntry is a replayable outcome plus the record timestamp the
// retention window is measured against (UnixNano; carried through
// checkpoints so a restart prunes on the original completion time, not
// the reload time).
type journalEntry struct {
	res result
	at  int64
}

// Pending is an in-flight invocation: a future completed exactly once by
// the owning worker's response or by shutdown. It is safe to share across
// goroutines.
type Pending struct {
	req    string
	done   chan struct{}
	res    result    // written exactly once before done closes
	doneAt time.Time // stamped at completion, before done closes
}

func newPending(req string) *Pending {
	return &Pending{req: req, done: make(chan struct{})}
}

// complete resolves the future. Callers must guarantee exactly-once (the
// runtime does, via pending.LoadAndDelete).
func (p *Pending) complete(r result) {
	p.res = r
	p.doneAt = time.Now()
	close(p.done)
}

// Req returns the request id.
func (p *Pending) Req() string { return p.req }

// DoneAt returns when the request completed (the zero time while still
// pending). Latency measured against it excludes any delay between
// completion and the caller collecting the future.
func (p *Pending) DoneAt() time.Time {
	select {
	case <-p.done:
		return p.doneAt
	default:
		return time.Time{}
	}
}

// Done reports completion without blocking.
func (p *Pending) Done() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the request completes, returning the value, the
// application-level error string, and the transport error (ErrClosed when
// shutdown fails the request).
func (p *Pending) Wait() (interp.Value, string, error) {
	<-p.done
	return p.res.value, p.res.err, p.res.fail
}

// WaitContext is Wait bounded by a context. If the context expires first
// the request itself keeps running; a later Wait can still observe it.
func (p *Pending) WaitContext(ctx context.Context) (interp.Value, string, error) {
	select {
	case <-p.done:
		return p.res.value, p.res.err, p.res.fail
	case <-ctx.Done():
		return interp.None, "", ctx.Err()
	}
}

// probe asks a worker for a copy of one entity's state.
type probe struct {
	ref   interp.EntityRef
	reply chan interp.MapState // receives nil when the entity is missing
}

// keysProbe asks a worker for its keys of one class.
type keysProbe struct {
	class string
	reply chan []string
}

type worker struct {
	rt    *Runtime
	inbox chan any // *core.Event, probe or keysProbe
	// store is only touched by this worker's goroutine.
	store *state.Store
	// processed counts handled events (observability).
	processed atomic.Int64
}

// New starts a live runtime for a compiled program. It panics if the
// configured journal cannot be opened — use Open to handle that error
// (without a JournalPath, New cannot fail).
func New(prog *ir.Program, cfg Config) *Runtime {
	rt, err := Open(prog, cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Open starts a live runtime, recovering the response journal when one is
// configured: outcomes journaled by a previous incarnation are loaded for
// replay before any worker starts. A torn journal tail (a crash mid-
// append) is detected and discarded by the dlog layer, never replayed.
func Open(prog *ir.Program, cfg Config) (*Runtime, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 1024
	}
	if cfg.JournalCheckpointEvery == 0 {
		cfg.JournalCheckpointEvery = 1024
	}
	rt := &Runtime{ex: core.NewExecutor(prog), quit: make(chan struct{}),
		retention: cfg.JournalRetention, checkpointEvery: cfg.JournalCheckpointEvery}
	if cfg.JournalPath != "" {
		jl, err := dlog.OpenFile(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		rt.journal = jl
		rt.incarnation = fmt.Sprintf("i%x-", time.Now().UnixNano())
		// The durable image is the last checkpoint's retained entries
		// plus every frame appended after it, in that order (a frame
		// re-journaling a checkpointed id just overwrites it in place).
		recovered := jl.Recovered()
		if len(recovered.Checkpoint) > 0 {
			entries, err := decodeJournalCheckpoint(recovered.Checkpoint)
			if err != nil {
				return nil, fmt.Errorf("live: journal checkpoint at %s corrupt: %w", cfg.JournalPath, err)
			}
			for id, en := range entries {
				rt.replay.Store(id, en)
			}
		}
		for _, rec := range recovered.Records {
			if rec.Kind != journalResponse {
				continue
			}
			if id, res, err := decodeJournalResponse(rec.Data); err == nil {
				rt.replay.Store(id, journalEntry{res: res, at: rec.At})
			}
		}
	}
	for range cfg.Workers {
		w := &worker{
			rt:    rt,
			inbox: make(chan any, cfg.MailboxDepth),
			store: state.NewStore(prog.Layouts()),
		}
		rt.workers = append(rt.workers, w)
		rt.wg.Add(1)
		go w.run()
	}
	rt.registerMetrics()
	if cfg.MetricsAddr != "" {
		if err := rt.serveMetrics(cfg.MetricsAddr); err != nil {
			rt.Close()
			return nil, err
		}
	}
	return rt, nil
}

// registerMetrics builds the runtime's registry: read-through funcs over
// the atomics the runtime keeps and the journal's stats. Only the journal's
// read takes a lock (its own, which an fsync holds), so exposition never
// contends with workers.
func (rt *Runtime) registerMetrics() {
	reg := obs.NewRegistry()
	rt.metrics = reg
	reg.Func("live.submits", rt.submits.Load)
	reg.Func("live.journal.replays", rt.replays.Load)
	reg.Func("live.workers", func() int64 { return int64(len(rt.workers)) })
	reg.Func("live.processed", rt.Processed)
	reg.Func("live.journal.errors", rt.journalErrs.Load)
	if rt.journal != nil {
		reg.Fields("live.journal.", func() any { return rt.journal.Stats() })
	}
}

// serveMetrics binds the metrics listener and serves /metrics (Prometheus
// text) and /debug/vars (expvar) until Close.
func (rt *Runtime) serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("live: metrics listener on %s: %w", addr, err)
	}
	rt.metricsLn = ln
	rt.metrics.PublishExpvar("stateflow.live")
	mux := http.NewServeMux()
	mux.Handle("/metrics", rt.metrics.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	rt.metricsWg.Add(1)
	go func() {
		defer rt.metricsWg.Done()
		_ = srv.Serve(ln) // returns once Close closes the listener
	}()
	return nil
}

// Metrics returns the runtime's metric registry (always non-nil).
func (rt *Runtime) Metrics() *obs.Registry { return rt.metrics }

// MetricsAddr returns the bound metrics address (empty when no
// Config.MetricsAddr was configured). With ":0" this is where the free
// port landed.
func (rt *Runtime) MetricsAddr() string {
	if rt.metricsLn == nil {
		return ""
	}
	return rt.metricsLn.Addr().String()
}

// encodeJournalResponse frames one completed outcome.
func encodeJournalResponse(id string, r result) []byte {
	e := interp.NewEncoder()
	e.Str(id)
	e.Value(r.value)
	e.Str(r.err)
	return e.Bytes()
}

func decodeJournalResponse(data []byte) (string, result, error) {
	d := interp.NewDecoder(data)
	id, err := d.Str()
	if err != nil {
		return "", result{}, err
	}
	v, err := d.Value()
	if err != nil {
		return "", result{}, err
	}
	errStr, err := d.Str()
	if err != nil {
		return "", result{}, err
	}
	return id, result{value: v, err: errStr}, nil
}

// encodeJournalCheckpoint frames the retained replay entries (sorted by
// id, so the payload is deterministic for a given map).
func encodeJournalCheckpoint(entries map[string]journalEntry) []byte {
	ids := make([]string, 0, len(entries))
	for id := range entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	e := interp.NewEncoder()
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		en := entries[id]
		e.Str(id)
		e.Value(en.res.value)
		e.Str(en.res.err)
		e.Uvarint(uint64(en.at))
	}
	return e.Bytes()
}

func decodeJournalCheckpoint(data []byte) (map[string]journalEntry, error) {
	d := interp.NewDecoder(data)
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	out := make(map[string]journalEntry, n)
	for i := 0; i < n; i++ {
		id, err := d.Str()
		if err != nil {
			return nil, err
		}
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		errStr, err := d.Str()
		if err != nil {
			return nil, err
		}
		at, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		out[id] = journalEntry{res: result{value: v, err: errStr}, at: int64(at)}
	}
	return out, nil
}

// checkpointJournal compacts the journal: replay entries still inside
// the retention window are written as one checkpoint record replacing
// the file, entries outside it are pruned from the file and the replay
// map alike. Appends are held out (jmu) for the duration so no outcome
// can slip between the payload snapshot and the file swap.
func (rt *Runtime) checkpointJournal() {
	rt.jmu.Lock()
	defer rt.jmu.Unlock()
	if rt.appendsSinceCkpt.Load() < int64(rt.checkpointEvery) {
		return // another completer compacted while we waited for the lock
	}
	var cutoff int64
	if rt.retention > 0 {
		cutoff = time.Now().Add(-rt.retention).UnixNano()
	}
	keep := make(map[string]journalEntry)
	rt.replay.Range(func(k, v any) bool {
		en := v.(journalEntry)
		if en.at < cutoff {
			rt.replay.Delete(k)
			return true
		}
		keep[k.(string)] = en
		return true
	})
	if err := rt.journal.Checkpoint(encodeJournalCheckpoint(keep)); err != nil {
		rt.journalErrs.Add(1)
		return
	}
	rt.appendsSinceCkpt.Store(0)
}

// Close stops all workers, waits for them to drain, and fails every
// request still pending with ErrClosed — an in-flight chain whose next hop
// raced the shutdown can never produce a response, so its waiter must not
// block forever. The response journal, if any, is synced and closed last.
func (rt *Runtime) Close() {
	if rt.closed.Swap(true) {
		return
	}
	if rt.metricsLn != nil {
		rt.metricsLn.Close() // unblocks Serve; scrapes in flight finish on their conns
		rt.metricsWg.Wait()
	}
	close(rt.quit)
	rt.wg.Wait()
	rt.pending.Range(func(k, _ any) bool {
		rt.complete(k.(string), result{fail: ErrClosed})
		return true
	})
	if rt.journal != nil {
		if err := rt.journal.Close(); err != nil {
			rt.journalErrs.Add(1)
		}
	}
}

// Processed returns the total number of handled events.
func (rt *Runtime) Processed() int64 {
	var total int64
	for _, w := range rt.workers {
		total += w.processed.Load()
	}
	return total
}

func (rt *Runtime) ownerOf(ref interp.EntityRef) *worker {
	h := fnv.New32a()
	_, _ = h.Write([]byte(ref.Class))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(ref.Key))
	return rt.workers[int(h.Sum32()%uint32(len(rt.workers)))]
}

// send routes an event to its target partition. During shutdown the event
// is dropped; Close fails the chain's pending request afterwards.
func (rt *Runtime) send(ev *core.Event) {
	select {
	case rt.ownerOf(ev.Target).inbox <- ev:
	case <-rt.quit:
	}
}

// complete resolves a pending request exactly once: LoadAndDelete makes
// worker delivery, Submit's shutdown re-check and Close's drain race
// safely — whoever removes the entry completes it. Real outcomes (not
// shutdown failures) are journaled — appended and fsynced — and
// published to the replay map BEFORE the pending entry is released: a
// duplicate SubmitWithID can therefore never slip between removal and
// publication and re-execute a completed request (write-ahead at the
// egress, idempotence preserved under races).
func (rt *Runtime) complete(id string, r result) {
	if rt.journal != nil && r.fail == nil {
		at := time.Now().UnixNano()
		if _, dup := rt.replay.LoadOrStore(id, journalEntry{res: r, at: at}); !dup {
			rec := dlog.Record{Kind: journalResponse, At: at, Data: encodeJournalResponse(id, r)}
			rt.jmu.RLock()
			if err := rt.journal.Append(rec); err != nil {
				rt.journalErrs.Add(1)
			} else if err := rt.journal.Sync(); err != nil {
				rt.journalErrs.Add(1)
			}
			rt.jmu.RUnlock()
			if rt.checkpointEvery > 0 &&
				rt.appendsSinceCkpt.Add(1) >= int64(rt.checkpointEvery) {
				rt.checkpointJournal()
			}
		}
	}
	if p, ok := rt.pending.LoadAndDelete(id); ok {
		p.(*Pending).complete(r)
	}
}

// Submit sends an invocation without waiting and returns its future.
func (rt *Runtime) Submit(class, key, method string, args ...interp.Value) *Pending {
	return rt.SubmitWithID("", class, key, method, args...)
}

// SubmitWithID is Submit with a caller-supplied stable request id (empty:
// mint one). With the journal enabled, a supplied id whose outcome is
// already journaled — by this incarnation or a previous one — is
// answered from the journal without re-execution: the client-retry/
// response-replay protocol of the simulated runtimes, carried over
// process restarts. A supplied id currently in flight returns its
// existing future (idempotent submit). Minted ids never consult the
// journal (nobody can retry an id they have not seen) and carry an
// incarnation prefix so they cannot collide with a previous process's
// journaled ids.
func (rt *Runtime) SubmitWithID(id, class, key, method string, args ...interp.Value) *Pending {
	rt.submits.Add(1)
	if id == "" {
		id = fmt.Sprintf("live-%s%d", rt.incarnation, rt.nextReq.Add(1))
	} else if r, ok := rt.replay.Load(id); ok {
		rt.replays.Add(1)
		p := newPending(id)
		p.complete(r.(journalEntry).res)
		return p
	}
	p := newPending(id)
	if rt.closed.Load() {
		p.complete(result{fail: ErrClosed})
		return p
	}
	if prev, loaded := rt.pending.LoadOrStore(id, p); loaded {
		return prev.(*Pending) // same id already in flight: share its future
	}
	// Re-check replay now that our pending entry is visible: complete()
	// publishes the outcome before deleting the pending entry, so if the
	// id completed between our first replay check and the store above,
	// the outcome is guaranteed visible here — withdraw instead of
	// re-executing. (If the completer already consumed our fresh entry,
	// it resolved p with the same outcome; don't complete twice.)
	if r, ok := rt.replay.Load(id); ok {
		if _, mine := rt.pending.LoadAndDelete(id); mine {
			rt.replays.Add(1)
			p.complete(r.(journalEntry).res)
		}
		return p
	}
	rt.send(&core.Event{
		Kind:   core.EvInvoke,
		Req:    id,
		Target: interp.EntityRef{Class: class, Key: key},
		Method: method,
		Args:   args,
	})
	if rt.closed.Load() {
		// Close may have drained the pending map before our Store landed;
		// fail the request ourselves so a racing shutdown cannot strand it.
		rt.complete(id, result{fail: ErrClosed})
	}
	return p
}

// Invoke calls a method and blocks until the chain completes. The second
// return is the application-level error string (empty on success).
func (rt *Runtime) Invoke(class, key, method string, args ...interp.Value) (interp.Value, string, error) {
	return rt.Submit(class, key, method, args...).Wait()
}

// Create instantiates an entity and blocks until done.
func (rt *Runtime) Create(class string, args ...interp.Value) (interp.EntityRef, error) {
	key, err := rt.ex.KeyForCtor(class, args)
	if err != nil {
		return interp.EntityRef{}, err
	}
	v, errStr, err := rt.Invoke(class, key, "__init__", args...)
	if err != nil {
		return interp.EntityRef{}, err
	}
	if errStr != "" {
		return interp.EntityRef{}, fmt.Errorf("%s", errStr)
	}
	return v.R, nil
}

// PreloadEntity loads an entity by running its constructor through the
// dataflow. (Unlike the simulated systems there is no out-of-band store
// access: workers own their partitions exclusively.)
func (rt *Runtime) PreloadEntity(class string, args ...interp.Value) error {
	_, err := rt.Create(class, args...)
	return err
}

// ask sends a control message to the worker, reporting false during
// shutdown (the reply channel might never be served).
func (w *worker) ask(msg any) bool {
	select {
	case w.inbox <- msg:
		return true
	case <-w.rt.quit:
		return false
	}
}

// EntityState reads a copy of one entity's attributes, served from the
// owning worker's goroutine so no lock is needed on the store. During
// shutdown it reports false.
func (rt *Runtime) EntityState(class, key string) (interp.MapState, bool) {
	if rt.closed.Load() {
		return nil, false
	}
	ref := interp.EntityRef{Class: class, Key: key}
	reply := make(chan interp.MapState, 1)
	if !rt.ownerOf(ref).ask(probe{ref: ref, reply: reply}) {
		return nil, false
	}
	select {
	case st := <-reply:
		if st == nil {
			return nil, false
		}
		return st, true
	case <-rt.quit:
		return nil, false
	}
}

// Keys lists the keys of every entity of a class, sorted across all
// partitions; each worker serves its slice from its own goroutine. During
// shutdown it reports nil.
func (rt *Runtime) Keys(class string) []string {
	if rt.closed.Load() {
		return nil
	}
	var out []string
	for _, w := range rt.workers {
		reply := make(chan []string, 1)
		if !w.ask(keysProbe{class: class, reply: reply}) {
			return nil
		}
		select {
		case keys := <-reply:
			out = append(out, keys...)
		case <-rt.quit:
			return nil
		}
	}
	sort.Strings(out)
	return out
}

// run is the worker goroutine: serial execution over its partition. It
// prefers draining its inbox and only honors quit when idle, so queued
// work is served before shutdown.
func (w *worker) run() {
	defer w.rt.wg.Done()
	for {
		select {
		case msg := <-w.inbox:
			w.handle(msg)
		default:
			select {
			case msg := <-w.inbox:
				w.handle(msg)
			case <-w.rt.quit:
				w.flush()
				return
			}
		}
	}
}

// handle processes one inbox message.
func (w *worker) handle(msg any) {
	switch m := msg.(type) {
	case probe:
		if st, ok := w.store.Lookup(m.ref); ok {
			m.reply <- st.CloneMap()
		} else {
			m.reply <- nil
		}
	case keysProbe:
		m.reply <- w.store.Keys(m.class)
	case *core.Event:
		w.processed.Add(1)
		out, err := w.rt.ex.Step(m, liveStore{w.store})
		if err != nil {
			out = core.Event{Kind: core.EvResponse, Req: m.Req, Err: err.Error()}
		}
		w.deliver(out)
	}
}

// flush answers control probes still queued at shutdown and drops events
// (Close fails their pending requests afterwards).
func (w *worker) flush() {
	for {
		select {
		case msg := <-w.inbox:
			switch m := msg.(type) {
			case probe:
				m.reply <- nil
			case keysProbe:
				m.reply <- nil
			}
		default:
			return
		}
	}
}

// deliver routes a produced event: responses complete pending requests,
// everything else hops to the owning partition.
func (w *worker) deliver(ev core.Event) {
	if ev.Kind == core.EvResponse {
		w.rt.complete(ev.Req, result{value: ev.Value, err: ev.Err})
		return
	}
	hop := ev // copied here, so that only a hop allocates its event
	w.rt.send(&hop)
}

// liveStore adapts state.Store to core.Store.
type liveStore struct{ s *state.Store }

// Lookup implements core.Store.
func (l liveStore) Lookup(ref interp.EntityRef) (interp.State, bool) {
	st, ok := l.s.Lookup(ref)
	if !ok {
		return nil, false
	}
	return st, true
}

// Create implements core.Store.
func (l liveStore) Create(ref interp.EntityRef, ctor func(interp.State) error) error {
	return l.s.Create(ref, ctor)
}
