package stateflow

import (
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// The journal's sequence windows and record arena (window.go), on the
// journal fixture of journal_test.go.

// deliver stages and syncs answers for the given ids, each at source
// position pos(id), and runs until they are released.
func (fx *journalFixture) deliver(pos func(id string) int64, ids ...string) {
	fx.do(func(ctx *sim.Context, j *journal) {
		for _, id := range ids {
			j.stage(ctx, "", answer(id, pos(id), ctx))
		}
		j.sync(ctx)
	})
	fx.run(5 * time.Millisecond)
}

// seqIDs is "<src>.<from>" … "<src>.<to>".
func seqIDs(src string, from, to int) []string {
	ids := make([]string, 0, to-from+1)
	for i := from; i <= to; i++ {
		ids = append(ids, fmt.Sprintf("%s.%d", src, i))
	}
	return ids
}

// posOfSeq places a request at the source position of its sequence.
func posOfSeq(id string) int64 {
	_, seq, _ := sysapi.SplitID(id)
	return seq
}

// liveChunks counts the arena chunks that hold a record.
func (a *recArena) liveChunks() int {
	n := 0
	for _, c := range a.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// A source's first arrivals jitter: a sequence below the base its window
// opened at is indexed all the same, so a duplicate of it is absorbed and
// its answer re-served.
func TestJournalWindowBelowBase(t *testing.T) {
	fx := newJournalFixture(t, 0)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.logged("cl.1000") // opens the window at 512
		j.logged("cl.3")
		j.logged("cl.700")
	})
	fx.deliver(posOfSeq, "cl.700")
	j := fx.j()
	if w := j.windows["cl"]; w == nil || w.base != 0 || len(w.index) != 2 {
		t.Fatalf("window %+v, want one reaching down to 0 over two chunks", w)
	}
	fx.do(func(ctx *sim.Context, j *journal) {
		for id, want := range map[string]admission{
			"cl.3": admitAbsorbed, "cl.1000": admitAbsorbed, "cl.700": admitReplayed, "cl.4": admitNew,
		} {
			if got := j.admit(ctx, id, "client"); got != want {
				t.Errorf("admit(%s) = %d, want %d", id, got, want)
			}
		}
	})
}

// Each source has a window of its own, and so has each incarnation of a
// prefix: the same sequence under two sources is two records, and the
// prune raises each source's floor from its own records.
func TestJournalWindowPerSource(t *testing.T) {
	const retention = time.Second
	fx := newJournalFixture(t, retention)
	fx.deliver(func(id string) int64 { return 1 }, "a1.5", "cl1.5")
	fx.run(2 * retention)
	fx.deliver(func(id string) int64 { return 1 }, "b1.5", "cl2.5")
	fx.do(func(ctx *sim.Context, j *journal) { j.checkpoint(ctx, marks{epoch: 1}, 10) })
	check := func(when string) {
		t.Helper()
		j := fx.j()
		if len(j.windows) != 2 || j.windows["b1"] == nil || j.windows["cl2"] == nil {
			t.Fatalf("%s: windows %v, want b1 and cl2 (a1 and cl1 pruned empty)", when, j.windows)
		}
		for id, held := range map[string]bool{"a1.5": false, "cl1.5": false, "b1.5": true, "cl2.5": true} {
			ent, ok := j.delivered(id)
			if ok != held || held && ent.resp.Req != id {
				t.Fatalf("%s: %s delivered=%v (%q), want %v", when, id, ok, ent.resp.Req, held)
			}
		}
		if f := j.dedupFloor; len(f) != 2 || f["a1"] != 5 || f["cl1"] != 5 {
			t.Fatalf("%s: floors %v, want a1 and cl1 at 5", when, f)
		}
	}
	check("after the prune")
	fx.reboot()
	check("after restore")
	fx.do(func(ctx *sim.Context, j *journal) {
		for id, want := range map[string]admission{
			"cl1.5": admitLate, "cl2.5": admitReplayed, "cl3.5": admitNew, "cl1.6": admitNew,
		} {
			if got := j.admit(ctx, id, "client"); got != want {
				t.Errorf("admit(%s) = %d, want %d", id, got, want)
			}
		}
	})
}

// Ids no window may index live in requests by name: ids SplitID does not
// read, "cl.07" and "cl.+7" among them, and strays, sequences too far from
// the rest of their source to index. They survive a checkpoint and a
// reboot like the windows' records.
func TestJournalWindowFallback(t *testing.T) {
	fx := newJournalFixture(t, 0)
	ids := []string{"r1", "t3", "gapply-7-1", "cl.07", "cl.+7", "cl.7", "cl.40000000000"}
	fx.deliver(func(id string) int64 { return int64(len(id)) }, ids...)
	fx.do(func(ctx *sim.Context, j *journal) { j.checkpoint(ctx, marks{epoch: 1}, 0) })
	fx.reboot()
	j := fx.j()
	if len(j.requests) != 6 || j.strays != 1 || len(j.windows) != 1 || j.windows["cl"].get(7) == 0 {
		t.Fatalf("%d by name (%d strays), %d windows: want six by name, one a stray, and cl.7 in cl's window",
			len(j.requests), j.strays, len(j.windows))
	}
	for _, id := range ids {
		if ent, ok := j.delivered(id); !ok || ent.resp.Req != id {
			t.Errorf("%s: delivered=%v with %q", id, ok, ent.resp.Req)
		}
	}
	fx.do(func(ctx *sim.Context, j *journal) {
		for id, want := range map[string]admission{"cl.40000000000": admitAbsorbed, "cl.40000000001": admitNew, "cl.007": admitNew} {
			if got := j.admit(ctx, id, ""); got != want {
				t.Errorf("admit(%s) = %d, want %d", id, got, want)
			}
		}
	})
}

// A prune that empties the front chunks frees them: the arena drops its
// chunks whose records all went and the window moves its base past its
// empty chunks, while a chunk with one record left keeps it.
func TestJournalWindowPruneFreesFrontChunks(t *testing.T) {
	const retention = time.Second
	fx := newJournalFixture(t, retention)
	fx.deliver(posOfSeq, seqIDs("cl", 1, 1500)...)
	j := fx.j()
	before := len(j.recs.chunks)
	fx.run(2 * retention)
	fx.do(func(ctx *sim.Context, j *journal) { j.checkpoint(ctx, marks{epoch: 1}, 1000) })
	// Positions are handed out from 1, in the order cl.1 … cl.1500 arrived,
	// so cl.1 … cl.959 filled the first fifteen arena chunks.
	if got, want := len(j.recs.chunks), before-15; got != want || j.recs.liveChunks() != want {
		t.Errorf("arena: %d chunks (%d live), want %d of %d left", got, j.recs.liveChunks(), want, before)
	}
	if w := j.windows["cl"]; w.base != 512 || len(w.index) != 2 {
		t.Errorf("window: base %d over %d chunks, want 512 over 2", w.base, len(w.index))
	}
	if floor := j.dedupFloor["cl"]; floor != 999 {
		t.Errorf("floor %d, want 999", floor)
	}
	for _, id := range seqIDs("cl", 990, 1500) {
		ent, ok := j.delivered(id)
		if held := posOfSeq(id) >= 1000; ok != held || held && ent.resp.Value.I != posOfSeq(id) {
			t.Fatalf("%s: delivered=%v with %v, want %v", id, ok, ent.resp.Value, held)
		}
	}
}

// A response staged past the retention window is never pruned, and it
// holds one arena chunk and one window chunk: the chunks around it go.
func TestJournalWindowStagedRecordPinsOnlyItsChunk(t *testing.T) {
	const retention = time.Second
	fx := newJournalFixture(t, retention)
	ids := append(seqIDs("cl", 1, 299), seqIDs("cl", 301, 1500)...)
	fx.deliver(posOfSeq, ids...)
	fx.do(func(ctx *sim.Context, j *journal) { j.stage(ctx, "", answer("cl.300", 300, ctx)) }) // no sync
	fx.run(2 * retention)
	fx.do(func(ctx *sim.Context, j *journal) { j.checkpoint(ctx, marks{epoch: 1}, 2000) })
	j := fx.j()
	if !j.answered("cl.300") || j.size() != 1 {
		t.Fatalf("cl.300 answered=%v, %d answered: want the staged record alone", j.answered("cl.300"), j.size())
	}
	if len(j.recs.chunks) != 1 || j.recs.liveChunks() != 1 {
		t.Errorf("arena: %d chunks (%d live), want the staged record's alone", len(j.recs.chunks), j.recs.liveChunks())
	}
	if w := j.windows["cl"]; w.base != 0 || len(w.index) != 1 {
		t.Errorf("window: base %d over %d chunks, want 0 over 1", w.base, len(w.index))
	}
}

// Positions are a 32-bit counter. Near its wrap point, records allocated
// on both sides of it are found, a prune frees across it, and the counter
// never hands out 0, which means "no record".
func TestJournalWindowPositionsWrap(t *testing.T) {
	const retention = time.Second
	fx := newJournalFixture(t, retention)
	j := fx.j()
	j.recs.next = math.MaxUint32 - 100
	fx.deliver(posOfSeq, seqIDs("cl", 1, 300)...)
	fx.run(2 * retention)
	fx.deliver(posOfSeq, seqIDs("cl", 301, 400)...)
	if j.recs.next != 300 {
		t.Fatalf("next position %d, want the counter wrapped once past 0", j.recs.next)
	}
	check := func(when string, from int) {
		t.Helper()
		for _, id := range seqIDs("cl", 1, 400) {
			ent, ok := j.delivered(id)
			if held := posOfSeq(id) >= int64(from); ok != held || held && ent.resp.Value.I != posOfSeq(id) {
				t.Fatalf("%s: %s delivered=%v with %v, want %v", when, id, ok, ent.resp.Value, held)
			}
		}
	}
	check("across the wrap", 1)
	fx.do(func(ctx *sim.Context, j *journal) { j.checkpoint(ctx, marks{epoch: 1}, 250) })
	check("after a prune across the wrap", 250)
	if j.recs.liveChunks() != len(j.recs.chunks) || len(j.recs.chunks) > 3 {
		t.Errorf("arena: %d chunks (%d live) for 151 records", len(j.recs.chunks), j.recs.liveChunks())
	}
}

// TestJournalArenaChunkFillsItsSizeClass pins the chunk sizes: an arena
// chunk is allocated in the 8 KB size class and a window chunk is exactly
// 2 KB, so neither wastes most of a class.
func TestJournalArenaChunkFillsItsSizeClass(t *testing.T) {
	// 6,912 bytes is the size class below 8 KB: a chunk over it takes 8 KB.
	if n := unsafe.Sizeof(recChunk{}); n <= 6912 || n > 8192 {
		t.Errorf("an arena chunk is %d bytes, want it in the 8 KB size class (6,913–8,192)", n)
	}
	if n := unsafe.Sizeof([seqChunkLen]uint32{}); n != 2048 {
		t.Errorf("a window chunk is %d bytes, want 2,048", n)
	}
	t.Logf("an arena chunk is %d bytes for %d records; a window chunk %d bytes for %d sequences",
		unsafe.Sizeof(recChunk{}), recChunkLen, unsafe.Sizeof([seqChunkLen]uint32{}), seqChunkLen)
}

// TestJournalWindowIsBounded runs a load generator for four retention
// windows with frequent snapshots. Once the first window has passed, the
// prune keeps pace with the arrivals: the arena holds no chunk beyond what
// its records fill, the generator's window no chunk beyond what its
// sequences span, and neither grows from the second window to the last by
// more than a chunk, where unpruned they would hold every request.
func TestJournalWindowIsBounded(t *testing.T) {
	const retention, rate, accounts = 500 * time.Millisecond, 1000, 20
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig()
	cfg.EpochInterval = 5 * time.Millisecond
	cfg.SnapshotEvery = 2
	cfg.DedupRetention = retention
	cluster := sim.New(7)
	dep := New(cluster, prog, cfg)
	for i := 0; i < accounts; i++ {
		if err := dep.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	dep.Single().CheckpointPreloadedState()
	b := sysapi.NewBuilder("g")
	gen := sysapi.NewGenerator("gen", dep, rate, 4*retention, 0, func(i int) sysapi.Request {
		ref := interp.EntityRef{Class: "Account", Key: acct(i % accounts)}
		return b.At(i, ref, "deposit", []interp.Value{interp.IntV(1)}, "deposit")
	})
	cluster.Add("gen", gen)
	cluster.Start()

	j := &dep.Single().Coordinator().journal
	var peak [2]struct{ chunks, index int } // over the second retention window, and over the last two
	for at := 2 * retention; at <= 4*retention; at += 10 * time.Millisecond {
		cluster.RunUntil(at)
		w := j.windows["g1"]
		if len(j.windows) != 1 || w == nil {
			t.Fatalf("at %v: windows %v, want the generator's alone", at, j.windows)
		}
		records, lo, hi := 0, int64(math.MaxInt64), int64(0)
		j.sweep(func(_ string, seq int64, _ bool, _ *deliveredEntry) bool {
			records, lo, hi = records+1, min(lo, seq), max(hi, seq)
			return false
		})
		chunks, index := len(j.recs.chunks), len(w.index)
		if need := (records + recChunkLen - 1) / recChunkLen; chunks > need+1 {
			t.Fatalf("at %v: the arena spans %d chunks for %d records", at, chunks, records)
		}
		if need := int(hi-lo+seqChunkLen) / seqChunkLen; index > need+1 {
			t.Fatalf("at %v: the window spans %d chunks for sequences %d–%d", at, index, lo, hi)
		}
		p := &peak[min(int((at-2*retention)/retention), 1)]
		p.chunks, p.index = max(p.chunks, chunks), max(p.index, index)
	}
	cluster.RunUntil(4*retention + 5*time.Second)
	if gen.Errors != 0 || gen.Done < rate {
		t.Fatalf("%d answered, %d errors", gen.Done, gen.Errors)
	}
	t.Logf("%d requests: the arena peaked at %d then %d chunks, the window at %d then %d",
		gen.Done, peak[0].chunks, peak[1].chunks, peak[0].index, peak[1].index)
	if peak[1].chunks > peak[0].chunks+1 || peak[1].index > peak[0].index+1 {
		t.Errorf("the dedup state grew after warm-up: arena %d → %d chunks, window %d → %d",
			peak[0].chunks, peak[1].chunks, peak[0].index, peak[1].index)
	}
	if unpruned := gen.Done / recChunkLen; peak[1].chunks*2 > unpruned {
		t.Errorf("the arena peaked at %d chunks; %d requests unpruned fill %d", peak[1].chunks, gen.Done, unpruned)
	}
}
