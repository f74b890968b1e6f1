package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/queue"
	"statefulentities.dev/stateflow/internal/runtime/live"
	"statefulentities.dev/stateflow/internal/runtime/local"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/snapshot"
	"statefulentities.dev/stateflow/internal/state"
	"statefulentities.dev/stateflow/internal/systems/statefun"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// Layer drivers time one layer's public functions on inputs shaped like
// the workload's: its rows, its request stream, batches the size an epoch
// holds at the reference rate. They run inside the traced run only, each
// under its own span, and their numbers are context for the ledger, not
// gated metrics: a driver that gets faster predicts which end-to-end
// number should follow (see the Moves column in metrics.go).

// perOp times f over n operations and returns host ns per operation.
func perOp(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / float64(n)
}

// mallocs counts the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// pingPong is a no-op component: it forwards every message to its peer.
type pingPong struct{ peer string }

func (p pingPong) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	ctx.Send(p.peer, msg, time.Microsecond)
}

// driveSim measures the simulation kernel alone: two no-op components
// exchanging Context.Send, 64 messages in flight.
func driveSim() (nsPerEvent, allocsPerEvent float64) {
	const events = 400_000
	cluster := sim.New(1)
	cluster.Add("a", pingPong{peer: "b"})
	cluster.Add("b", pingPong{peer: "a"})
	for i := 0; i < 64; i++ {
		cluster.Inject(0, "a", "b", i)
	}
	delivered := 0
	allocs := mallocs(func() {
		nsPerEvent = perOp(events, func() {
			for until := time.Millisecond; delivered < events; until += time.Millisecond {
				delivered += cluster.RunUntil(until)
			}
		})
	})
	return nsPerEvent * events / float64(delivered), float64(allocs) / float64(delivered)
}

// driveLocal pushes the workload's request stream through the Local
// runtime, the single-threaded baseline the distributed cost sits on.
// Rows carry the workload's payload.
func driveLocal(w *workload, prog *ir.Program, reqs []sysapi.Request) (usPerTxn, allocsPerTxn float64, err error) {
	rt := local.New(prog)
	load := ycsb.Loader(w.Records, w.PayloadBytes)
	for i := 0; i < w.Records; i++ {
		class, args := load(i)
		if err := rt.PreloadEntity(class, args...); err != nil {
			return 0, 0, err
		}
	}
	allocs := mallocs(func() {
		usPerTxn = perOp(len(reqs), func() {
			for _, req := range reqs {
				if _, e := rt.Invoke(req.Target.Class, req.Target.Key, req.Method, req.Args...); e != nil && err == nil {
					err = e
				}
			}
		}) / 1e3
	})
	return usPerTxn, float64(allocs) / float64(len(reqs)), err
}

// accountRow builds the i-th preloaded row of the workload.
func accountRow(w *workload, i int) (interp.EntityRef, interp.MapState) {
	ref := interp.EntityRef{Class: "Account", Key: ycsb.Key(i)}
	return ref, interp.MapState{
		"owner":   interp.StrV(ref.Key),
		"balance": interp.IntV(ycsb.InitialBalance),
		"payload": interp.StrV(ycsb.Payload(w.PayloadBytes)),
	}
}

// driveRowCodec encodes and decodes one of the workload's rows without
// the row's encoding cache: what a written row pays.
func driveRowCodec(w *workload, prog *ir.Program) (encodeNs, decodeNs, rowBytes float64, err error) {
	layout := prog.Layouts().LayoutOf("Account")
	_, st := accountRow(w, 0)
	row := interp.RowFromMap(layout, st)
	n := 200_000
	if w.PayloadBytes > 4096 {
		n = 5_000
	}
	var buf []byte
	encodeNs = perOp(n, func() {
		for i := 0; i < n; i++ {
			e := interp.NewEncoder()
			e.Row(row)
			buf = e.Bytes()
		}
	})
	decodeNs = perOp(n, func() {
		for i := 0; i < n; i++ {
			if _, e := interp.NewDecoder(buf).Row(layout); e != nil {
				err = e
			}
		}
	})
	return encodeNs, decodeNs, float64(len(buf)), err
}

// driveStateStore encodes, decodes, snapshots and restores one worker's
// partition of the dataset (a fifth of the records).
func driveStateStore(w *workload, prog *ir.Program) (encodeMs, decodeMs, writeMs, restoreMs float64, err error) {
	layouts := prog.Layouts()
	store := state.NewStore(layouts)
	for i := 0; i < w.Records/5; i++ {
		ref, st := accountRow(w, i)
		store.PutMap(ref, st)
	}
	const n = 20
	var image []byte
	encodeMs = perOp(n, func() {
		for i := 0; i < n; i++ {
			// Dirty one row so the image is not assembled from caches only:
			// between two snapshots a partition has written rows.
			ref := interp.EntityRef{Class: "Account", Key: ycsb.Key(i)}
			if row, ok := store.Lookup(ref); ok {
				row.Set("balance", interp.IntV(int64(i)))
			}
			image = store.Encode()
		}
	}) / 1e6
	decodeMs = perOp(n, func() {
		for i := 0; i < n; i++ {
			if _, e := state.DecodeStore(image, layouts); e != nil {
				err = e
			}
		}
	}) / 1e6
	snaps := snapshot.NewStore(layouts)
	var id int64
	writeMs = perOp(n, func() {
		for i := 0; i < n; i++ {
			id = snaps.Begin(int64(i), nil)
			if e := snaps.Write(id, "w", store.Encode()); e != nil {
				err = e
			}
			snaps.Compact(2)
		}
	}) / 1e6
	restoreMs = perOp(n, func() {
		for i := 0; i < n; i++ {
			if _, e := snaps.RestoreStore(id, "w"); e != nil {
				err = e
			}
		}
	}) / 1e6
	return encodeMs, decodeMs, writeMs, restoreMs, err
}

// rwSets builds the reservation sets of one epoch's batch from requests:
// a read reserves the balance slot for reading, an update and both sides
// of a transfer for writing.
func rwSets(batch []sysapi.Request) ([]aria.TID, map[aria.TID]*aria.RWSet) {
	balance := aria.SlotBit(1)
	order := make([]aria.TID, len(batch))
	sets := make(map[aria.TID]*aria.RWSet, len(batch))
	for i, req := range batch {
		tid := aria.TID(i + 1)
		order[i] = tid
		rw := aria.NewRWSet()
		for _, key := range touches(req) {
			k := aria.ResKey{Class: 0, Key: key}
			rw.Read(k, balance)
			if req.Method != "read" {
				rw.Write(k, balance)
			}
		}
		sets[tid] = rw
	}
	return order, sets
}

// driveAria runs Validate and Fallback over the stream cut into batches
// of the size one epoch holds at the reference rate.
func driveAria(w *workload, reqs []sysapi.Request) (validateNs, fallbackNs float64) {
	size := int(w.RefRPS * 0.005)
	if size < 2 {
		size = 2
	}
	type batch struct {
		order []aria.TID
		sets  map[aria.TID]*aria.RWSet
	}
	var batches []batch
	txns := 0
	for at := 0; at+size <= len(reqs) && txns < 20_000; at += size {
		order, sets := rwSets(reqs[at : at+size])
		batches = append(batches, batch{order, sets})
		txns += size
	}
	const rounds = 10
	validateNs = perOp(rounds*txns, func() {
		for r := 0; r < rounds; r++ {
			for _, b := range batches {
				aria.Validate(b.order, b.sets)
			}
		}
	})
	fallbackNs = perOp(rounds*txns, func() {
		for r := 0; r < rounds; r++ {
			for _, b := range batches {
				aria.Fallback(b.order, b.sets)
			}
		}
	})
	return validateNs, fallbackNs
}

// dlogTimes are the durable-log driver's results.
type dlogTimes struct {
	SimAppendNs, SimRecoverMs              float64
	FileAppendNs, FileSyncUs, FileReplayMs float64
}

// driveDlog appends delivered-record sized payloads to the simulated log
// (sync per batch, recover at the end) and to a FileLog in dir, which is
// this sandbox's page cache and fsync, not a device's.
func driveDlog(dir string) (dlogTimes, error) {
	var t dlogTimes
	payload := make([]byte, 96) // a delivered-record: id, small value, position
	const n, batch = 50_000, 10
	sl := dlog.NewSimLog()
	t.SimAppendNs = perOp(n, func() {
		for i := 0; i < n; i++ {
			sl.Append(dlog.Record{Kind: 1, At: int64(i), Data: payload})
			if i%batch == batch-1 {
				sl.SyncNow(time.Duration(i))
			}
		}
	})
	t.SimRecoverMs = perOp(1, func() { sl.Recover(time.Duration(n)) }) / 1e6

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return t, err
	}
	path := filepath.Join(dir, "driver.dlog")
	defer os.Remove(path)
	fl, err := dlog.OpenFile(path)
	if err != nil {
		return t, err
	}
	const fn = 5_000
	var syncs int
	var syncTime time.Duration
	total := perOp(fn, func() {
		for i := 0; i < fn && err == nil; i++ {
			err = fl.Append(dlog.Record{Kind: 1, At: int64(i), Data: payload})
			if i%batch == batch-1 && err == nil {
				s0 := time.Now()
				err = fl.Sync()
				syncTime += time.Since(s0)
				syncs++
			}
		}
	})
	if err != nil {
		fl.Close()
		return t, err
	}
	t.FileAppendNs = total - float64(syncTime)/fn
	t.FileSyncUs = float64(syncTime) / float64(syncs) / 1e3
	if err := fl.Close(); err != nil {
		return t, err
	}
	t.FileReplayMs = perOp(1, func() {
		if fl, err = dlog.OpenFile(path); err == nil {
			err = fl.Close()
		}
	}) / 1e6
	return t, err
}

// driveQueue produces the stream into the replayable source and fetches
// it back, as ingress and a recovery replay do.
func driveQueue(reqs []sysapi.Request) (produceNs, fetchNs float64, err error) {
	log := queue.NewLog()
	if err := log.CreateTopic("requests", 1); err != nil {
		return 0, 0, err
	}
	produceNs = perOp(len(reqs), func() {
		for _, req := range reqs {
			if _, _, e := log.Produce("requests", req.Req, req); e != nil {
				err = e
			}
		}
	})
	fetchNs = perOp(len(reqs), func() {
		for off := range reqs {
			if _, ok, e := log.Fetch("requests", 0, int64(off)); e != nil || !ok {
				err = fmt.Errorf("queue: fetch %d: ok=%v err=%v", off, ok, e)
			}
		}
	})
	return produceNs, fetchNs, err
}

// driveStatefun runs the paper's baseline, the StateFun-model runtime,
// on the workload's stream 0 at the reference rate.
func driveStatefun(w *workload, prog *ir.Program, seed int64) (p50, p99 time.Duration, err error) {
	cluster := sim.New(streamSeed(seed, 0))
	sys := statefun.New(cluster, prog, statefun.DefaultConfig())
	load := ycsb.Loader(w.Records, w.PayloadBytes)
	for i := 0; i < w.Records; i++ {
		class, args := load(i)
		if err := sys.PreloadEntity(class, args...); err != nil {
			return 0, 0, err
		}
	}
	chooser, err := ycsb.ChooserByName(w.Dist, w.Records)
	if err != nil {
		return 0, 0, err
	}
	wgen := ycsb.NewGenerator(w.Mix, chooser, w.Records, streamSeed(seed, 0)+17, "q")
	gen := sysapi.NewGenerator("client", sys, w.RefRPS, w.Window, warmUp, wgen.Next)
	cluster.Add(gen.ID, gen)
	cluster.Start()
	cluster.RunUntil(w.Window + w.Drain)
	return gen.Latency.Percentile(50), gen.Latency.Percentile(99), nil
}

// driveLive calls the Live runtime in a closed loop from one client on
// one worker goroutine: real goroutines and channels, no protocol.
func driveLive(w *workload, prog *ir.Program, reqs []sysapi.Request) (usPerCall float64, err error) {
	rt := live.New(prog, live.Config{Workers: 1})
	defer rt.Close()
	load := ycsb.Loader(w.Records, w.PayloadBytes)
	for i := 0; i < w.Records; i++ {
		class, args := load(i)
		if err := rt.PreloadEntity(class, args...); err != nil {
			return 0, err
		}
	}
	if len(reqs) > 20_000 {
		reqs = reqs[:20_000]
	}
	usPerCall = perOp(len(reqs), func() {
		for _, req := range reqs {
			if _, _, e := rt.Invoke(req.Target.Class, req.Target.Key, req.Method, req.Args...); e != nil {
				err = e
			}
		}
	}) / 1e3
	return usPerCall, err
}
