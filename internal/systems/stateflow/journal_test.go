package stateflow

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// The journal on its own: a simulated log, one host component that owns
// the journal, and a client sink. No coordinator, no workers — the only
// cluster traffic is the journal's own log-synced timer and the responses
// it releases.

// journalHost is the smallest owner a journal can have: it runs the steps
// a test injects, feeds completed syncs back, and restores on reboot.
type journalHost struct {
	j        journal
	restored recovered
}

type journalStep func(ctx *sim.Context, j *journal)

func (h *journalHost) OnMessage(ctx *sim.Context, _ string, msg sim.Message) {
	switch m := msg.(type) {
	case journalStep:
		m(ctx, &h.j)
	case msgLogSynced:
		h.j.synced(ctx, m)
	}
}

func (h *journalHost) OnRestart(ctx *sim.Context) { h.restored = h.j.restore(ctx) }

type journalFixture struct {
	cluster *sim.Cluster
	log     *dlog.SimLog
	host    *journalHost
	client  *rawClient
}

func newJournalFixture(t *testing.T, retention time.Duration) *journalFixture {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DedupRetention = retention
	fx := &journalFixture{cluster: sim.New(1), log: dlog.NewSimLog(), client: &rawClient{}}
	fx.host = &journalHost{j: newJournal("j", &cfg, fx.log)}
	fx.cluster.Add("j", fx.host)
	fx.cluster.Add("client", fx.client)
	fx.cluster.WatchCrash("j", fx.log.Crash)
	return fx
}

// do runs one step on the host now; timers and sends it issues stay queued.
func (fx *journalFixture) do(step journalStep) {
	now := fx.cluster.Now()
	fx.cluster.Inject(now, "test", "j", step)
	fx.cluster.RunUntil(now)
}

func (fx *journalFixture) run(d time.Duration) { fx.cluster.RunUntil(fx.cluster.Now() + d) }

// reboot crashes the host now and brings it back (through restore) 1ms on.
func (fx *journalFixture) reboot() {
	now := fx.cluster.Now()
	fx.cluster.ScheduleCrash("j", now, now+time.Millisecond)
	fx.run(2 * time.Millisecond)
}

func (fx *journalFixture) j() *journal { return &fx.host.j }

// delivered reads the record of a released response.
func (j *journal) delivered(id string) (deliveredEntry, bool) {
	ent := j.find(id)
	if ent == nil {
		return deliveredEntry{}, false
	}
	return *ent, ent.answer == answerDelivered
}

func answer(id string, pos int64, ctx *sim.Context) deliveredEntry {
	return deliveredEntry{resp: sysapi.Response{Req: id, Value: interp.IntV(pos)}, at: ctx.Now(), pos: pos}
}

// (i) Write-ahead: a staged response is neither sent nor delivered before
// the sync that covers it completes, and is both right after.
func TestJournalStagedResponseWaitsForItsSync(t *testing.T) {
	fx := newJournalFixture(t, 0)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.stage(ctx, "client", answer("r1", 0, ctx))
		j.sync(ctx)
	})
	j := fx.j()
	if _, ok := j.delivered("r1"); ok || !j.answered("r1") || j.quiet() {
		t.Fatalf("after stage+sync issue: delivered=%v answered=%v quiet=%v, want staged only", ok, j.answered("r1"), j.quiet())
	}
	fx.run(j.cfg.Costs.LogGroupDelay / 2)
	if _, ok := j.delivered("r1"); ok || len(fx.client.got) != 0 {
		t.Fatalf("released before its sync completed: delivered=%v, client saw %d", ok, len(fx.client.got))
	}
	fx.run(j.cfg.Costs.LogGroupDelay + 2*time.Millisecond)
	if ent, ok := j.delivered("r1"); !ok || ent.resp.Value.I != 0 || !j.quiet() {
		t.Fatalf("after the sync: delivered=%v quiet=%v", ok, j.quiet())
	}
	if len(fx.client.got) != 1 || fx.client.got[0].Req != "r1" {
		t.Fatalf("client saw %+v, want r1 once", fx.client.got)
	}
}

// (ii) A crash between an append and its sync: restore yields exactly the
// synced prefix, and the torn response's id is not answered (it was never
// sent, so its transaction must be free to run again).
func TestJournalRestoreYieldsTheSyncedPrefix(t *testing.T) {
	fx := newJournalFixture(t, 0)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.stage(ctx, "client", answer("r1", 0, ctx))
		j.sync(ctx)
	})
	fx.run(5 * time.Millisecond) // r1 durable and released
	fx.do(func(ctx *sim.Context, j *journal) {
		j.stage(ctx, "client", answer("r2", 1, ctx))
		j.sync(ctx) // issued, completes LogGroupDelay from now
	})
	fx.reboot() // lands inside the group-commit window
	j := fx.j()
	if fx.log.Stats().TornTails != 1 {
		t.Fatalf("torn tails = %d, want r2's record torn", fx.log.Stats().TornTails)
	}
	if fx.host.restored.records != 1 || fx.host.restored.corrupt != 0 {
		t.Fatalf("restored %+v, want one clean record", fx.host.restored)
	}
	if !j.answered("r1") || j.answered("r2") || j.size() != 1 || !j.quiet() {
		t.Fatalf("after restore: r1 answered=%v r2 answered=%v size=%d quiet=%v",
			j.answered("r1"), j.answered("r2"), j.size(), j.quiet())
	}
	if len(fx.client.got) != 1 || fx.client.got[0].Req != "r1" {
		t.Fatalf("client saw %+v, want only r1", fx.client.got)
	}
}

// (iii) At most one epoch record is volatile: a non-blocking advance
// leaves its record at risk, the next one — whatever its caller asked for —
// syncs before a second record could join it.
func TestJournalSecondVolatileAdvanceBlocks(t *testing.T) {
	fx := newJournalFixture(t, 0)
	syncs := fx.log.Stats().Syncs
	fx.do(func(ctx *sim.Context, j *journal) { j.advance(ctx, 1, false) })
	j := fx.j()
	if j.epochLSN <= j.durableLSN || fx.log.Stats().Syncs != syncs {
		t.Fatalf("first advance: epochLSN %d durableLSN %d syncs %d, want volatile and unsynced",
			j.epochLSN, j.durableLSN, fx.log.Stats().Syncs-syncs)
	}
	fx.do(func(ctx *sim.Context, j *journal) { j.advance(ctx, 2, false) })
	if j.epochLSN > j.durableLSN || fx.log.Stats().Syncs != syncs+1 {
		t.Fatalf("second advance: epochLSN %d durableLSN %d syncs %d, want durable by one blocking sync",
			j.epochLSN, j.durableLSN, fx.log.Stats().Syncs-syncs)
	}
	fx.run(time.Millisecond) // past the handler's CPU span, where the blocking sync sits
	fx.reboot()
	if got := fx.host.restored.epoch; got != 2 {
		t.Fatalf("restored epoch %d, want 2: the blocking sync covered both records", got)
	}
	// The contrapositive, which the restart path's over-bump exists for: a
	// lone non-blocking advance is lost with the crash, however late.
	fx.do(func(ctx *sim.Context, j *journal) { j.advance(ctx, 3, false) })
	fx.run(time.Millisecond)
	fx.reboot()
	if got := fx.host.restored.epoch; got != 2 {
		t.Fatalf("restored epoch %d, want 2: epoch 3's record was volatile", got)
	}
}

// (iv) A checkpoint prunes entries past the retention window and below the
// snapshot offset, raising their source's floor; the floor and the
// owner's marks survive restore; a late duplicate at or below the floor is
// absorbed (the verdict the coordinator counts as LateDuplicates). A floor
// reads only the sequences Builder.At spells: "src.09" raises none when it
// is pruned, and "src.05" is a fresh request, not src's sequence 5.
func TestJournalPruneRaisesADurableFloor(t *testing.T) {
	const retention = time.Second
	fx := newJournalFixture(t, retention)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.stage(ctx, "client", answer("src.5", 3, ctx))  // old, below the offset: pruned
		j.stage(ctx, "client", answer("src.09", 3, ctx)) // likewise, and no sequence of src
		j.stage(ctx, "client", answer("src.6", 12, ctx)) // old, but replayable: kept
		j.sync(ctx)
	})
	fx.run(2 * retention)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.stage(ctx, "client", answer("src.2", 4, ctx)) // below the offset, but fresh: kept
		j.checkpoint(ctx, marks{epoch: 7, nextTID: 40, sealed: 3, sealedCut: time.Second}, 10)
	})
	check := func(when string) {
		t.Helper()
		j := fx.j()
		if j.answered("src.5") || j.answered("src.09") || !j.answered("src.6") || !j.answered("src.2") {
			t.Fatalf("%s: answered src.5=%v src.09=%v src.6=%v src.2=%v, want only src.5 and src.09 pruned",
				when, j.answered("src.5"), j.answered("src.09"), j.answered("src.6"), j.answered("src.2"))
		}
		if got := j.dedupFloor["src"]; got != 5 {
			t.Fatalf("%s: floor %d, want 5", when, got)
		}
	}
	check("after checkpoint")
	fx.reboot()
	check("after restore")
	if m := fx.host.restored.marks; m != (marks{epoch: 7, nextTID: 40, sealed: 3, sealedCut: time.Second}) {
		t.Fatalf("restored marks %+v", m)
	}
	seen := len(fx.client.got)
	fx.do(func(ctx *sim.Context, j *journal) {
		for id, want := range map[string]admission{
			"src.5": admitLate, "src.4": admitLate, "src.0": admitLate, "src.7": admitNew, "other.1": admitNew,
			"src.05": admitNew, "src.+5": admitNew, "src.-0": admitNew, "src.00": admitNew,
		} {
			if got := j.admit(ctx, id, "client"); got != want {
				t.Errorf("admit(%s) = %d, want %d", id, got, want)
			}
		}
	})
	fx.run(5 * time.Millisecond)
	if len(fx.client.got) != seen {
		t.Fatalf("a late duplicate was answered: client saw %+v", fx.client.got[seen:])
	}
}

// (v) A response staged but not yet released when a checkpoint compacts
// the log is baked into the checkpoint: after a crash it still suppresses
// its transaction's replay, and a retry is served the recorded response.
func TestJournalCheckpointKeepsStagedResponses(t *testing.T) {
	fx := newJournalFixture(t, 0)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.stage(ctx, "", answer("r1", 0, ctx)) // no sync issued: staged only
		j.checkpoint(ctx, marks{epoch: 1}, 0)
	})
	fx.reboot()
	if fx.host.restored.records != 0 {
		t.Fatalf("%d log records survived the checkpoint, want the checkpoint alone to carry r1", fx.host.restored.records)
	}
	j := fx.j()
	if !j.answered("r1") {
		t.Fatal("r1 lost: its record was compacted away and the checkpoint did not carry it")
	}
	fx.do(func(ctx *sim.Context, j *journal) {
		if got := j.admit(ctx, "r1", "client"); got != admitReplayed {
			t.Errorf("admit(r1) = %d, want the recorded response replayed", got)
		}
	})
	fx.run(5 * time.Millisecond)
	if len(fx.client.got) != 1 || fx.client.got[0].Req != "r1" {
		t.Fatalf("client saw %+v, want r1 re-served once", fx.client.got)
	}
}

// A checkpoint carries every answer and nothing else: a response staged
// past the retention window (no sync was issued for it) is neither pruned
// nor forgotten, and an arrival that was only logged comes back unseen.
func TestJournalCheckpointCarriesAnswersOnly(t *testing.T) {
	const retention = time.Second
	fx := newJournalFixture(t, retention)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.stage(ctx, "", answer("old.1", 0, ctx))
		j.logged("cl.1")
	})
	fx.run(2 * retention)
	fx.do(func(ctx *sim.Context, j *journal) { j.checkpoint(ctx, marks{epoch: 1}, 10) })
	fx.reboot()
	j := fx.j()
	if _, pruned := j.dedupFloor["old"]; pruned || !j.answered("old.1") {
		t.Fatalf("old.1 answered=%v, floor %v: the prune took a staged response", j.answered("old.1"), j.dedupFloor)
	}
	if j.answered("cl.1") || j.size() != 1 {
		t.Fatalf("cl.1 answered=%v, %d answered: the checkpoint carried an unanswered arrival", j.answered("cl.1"), j.size())
	}
	fx.do(func(ctx *sim.Context, j *journal) {
		if got := j.admit(ctx, "cl.1", "client"); got != admitNew {
			t.Errorf("admit(cl.1) = %d after the reboot, want new: a logged arrival is not durable", got)
		}
	})
}

// TestJournalRecordIsCompact pins the journal's record of one request id at
// 128 bytes. While the records sat in a map, a larger value was stored out
// of line, one allocation per insert — what a delivered entry cost while it
// was 160 bytes; in the arena, 64 of them fill an 8 KB chunk
// (TestJournalArenaChunkFillsItsSizeClass).
func TestJournalRecordIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(deliveredEntry{}); n > 128 {
		t.Errorf("deliveredEntry is %d bytes, ceiling 128", n)
	}
	t.Logf("deliveredEntry is %d bytes", unsafe.Sizeof(deliveredEntry{}))
}

// checkpointOf encodes the checkpoint of a journal that holds the given
// delivered records and floors.
func checkpointOf(m marks, delivered map[string]deliveredEntry, floors map[string]int64) []byte {
	cfg := DefaultConfig()
	j := newJournal("j", &cfg, nil)
	for _, id := range slices.Sorted(maps.Keys(delivered)) {
		*j.add(id) = delivered[id]
	}
	maps.Copy(j.dedupFloor, floors)
	return j.encodeCheckpoint(m)
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the journal's checkpoint
// decoder — the record a coordinator reboots from, so a device fault
// decides what it reads. Whatever the bytes, decoding must not panic, and
// whatever it accepts must survive the round trip a reboot runs: loaded
// into a journal's windows and encoded from them, then loaded and encoded
// again, it gives back the same bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	full := checkpointOf(
		marks{epoch: 9, nextTID: 41, sealed: 3, sealedCut: 12 * time.Millisecond, fenceDone: 7},
		map[string]deliveredEntry{
			"cl.1":       {resp: sysapi.Response{Req: "cl.1", Value: interp.IntV(-5), Retries: 2}, at: time.Millisecond, pos: 4},
			"cl.2":       {resp: sysapi.Response{Req: "cl.2", Err: "boom"}, at: 2 * time.Millisecond, pos: 6},
			"gapply-7-1": {resp: sysapi.Response{Req: "gapply-7-1", Value: interp.StrV("x")}, pos: 8},
		},
		map[string]int64{"cl": 1, "api-2": 17})
	for n := 0; n <= len(full); n++ {
		f.Add(full[:n]) // every truncation, the empty payload and the whole one
	}
	f.Add(append(append([]byte(nil), full...), 0xff)) // trailing garbage
	f.Add(checkpointOf(marks{}, nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Builder ids whose string order is not their sequence order, beside
	// ids that name a sequence in another spelling.
	f.Add(checkpointOf(marks{epoch: 2}, map[string]deliveredEntry{
		"cl.9":  {resp: sysapi.Response{Req: "cl.9"}, pos: 9},
		"cl.10": {resp: sysapi.Response{Req: "cl.10"}, pos: 10},
		"cl.09": {resp: sysapi.Response{Req: "cl.09"}, pos: 11},
		"cl.+8": {resp: sysapi.Response{Req: "cl.+8"}, pos: 12},
	}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		j := newJournal("j", &cfg, nil)
		m, err := j.decodeCheckpoint(data)
		if err != nil {
			return
		}
		once := bytes.Clone(j.encodeCheckpoint(m))
		if m, err = j.decodeCheckpoint(once); err != nil {
			t.Fatalf("decoding a re-encoded checkpoint: %v", err)
		}
		if twice := j.encodeCheckpoint(m); !bytes.Equal(once, twice) {
			t.Fatalf("decode → encode is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}

// FuzzReadDelivered covers the per-record decoding a reboot runs over the
// log suffix (journal.restore): one delivered record per released
// response. Arbitrary bytes must not panic the decoder, and any entry
// appended and read back must come back unchanged — the seed corpus holds
// every truncation of a valid record.
func FuzzReadDelivered(f *testing.F) {
	enc := interp.NewEncoder()
	appendDelivered(enc, "cl.7", deliveredEntry{
		resp: sysapi.Response{Req: "cl.7", Value: interp.ListV(interp.IntV(-3), interp.StrV("x")), Err: "e", Retries: 4},
		at:   9 * time.Millisecond, pos: 12,
	})
	full := enc.Bytes()
	for n := 0; n <= len(full); n++ {
		f.Add(full[:n], "", int64(0), int64(0), "", int64(0))
	}
	f.Add(append(append([]byte(nil), full...), 0xff), "gapply-3-1", int64(5), int64(-1), "boom", int64(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "a", int64(-7), int64(1<<40), "", int64(-2))

	f.Fuzz(func(t *testing.T, data []byte, id string, pos, at int64, errStr string, val int64) {
		_, _, _ = readDelivered(interp.NewDecoder(data)) // must not panic

		want := deliveredEntry{
			resp: sysapi.Response{Req: id, Value: interp.IntV(val), Err: errStr, Retries: int(val % 64)},
			at:   time.Duration(at), pos: pos,
		}
		e := interp.NewEncoder()
		appendDelivered(e, id, want)
		gotID, got, err := readDelivered(interp.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("reading back an appended record: %v", err)
		}
		if gotID != id || got.at != want.at || got.pos != want.pos || got.resp.Req != want.resp.Req ||
			!got.resp.Value.Equal(want.resp.Value) || got.resp.Err != want.resp.Err || got.resp.Retries != want.resp.Retries {
			t.Fatalf("append → read changed the entry: %q %+v, want %q %+v", gotID, got, id, want)
		}
	})
}

// TestJournalVerdictTable walks one id through every state the journal can
// hold it in and reads the three verdicts the coordinator acts on: admit
// (what an arrival does), answered (whether the batch machinery may run it)
// and known (what a parked shard reports to the sequencer). An embedded
// response staged on its home shard is answered but was never logged
// there, so an arrival of its id is judged as new (or late), not absorbed.
// Logging an answered id keeps its answer, and resetSeen keeps every
// answered id while it forgets the arrivals nobody answered.
func TestJournalVerdictTable(t *testing.T) {
	const retention = time.Second
	fx := newJournalFixture(t, retention)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.stage(ctx, "client", answer("old.2", 0, ctx))
		j.sync(ctx)
	})
	fx.run(2 * retention)
	fx.do(func(ctx *sim.Context, j *journal) {
		j.checkpoint(ctx, marks{epoch: 1}, 10) // prunes old.2: the floor of "old" is 2
		j.stage(ctx, "client", answer("cl.5", 5, ctx))
		j.stage(ctx, "", answer("cl.6", 6, ctx))
		j.stage(ctx, "client", answer("r8", 8, ctx))
		j.sync(ctx)
	})
	fx.run(5 * time.Millisecond) // cl.5, cl.6 and r8 delivered
	fx.do(func(ctx *sim.Context, j *journal) {
		j.logged("cl.2")
		j.logged("cl.3")
		j.stage(ctx, "client", answer("cl.3", 3, ctx))
		j.stage(ctx, "client", answer("cl.4", 4, ctx)) // never logged here
		j.stage(ctx, "client", answer("old.1", 1, ctx))
	})

	positions := map[string]int64{"cl.5": 5, "r8": 8} // the delivered ids' recorded values

	type row struct {
		id, replyTo     string
		admit           admission
		answered, known bool
	}
	check := func(when string, rows []row) {
		t.Helper()
		got := len(fx.client.got)
		replays := map[string]int64{}
		fx.do(func(ctx *sim.Context, j *journal) {
			for _, r := range rows {
				if a := j.admit(ctx, r.id, r.replyTo); a != r.admit {
					t.Errorf("%s: admit(%s) = %d, want %d", when, r.id, a, r.admit)
				}
				if a, k := j.answered(r.id), j.known(r.id); a != r.answered || k != r.known {
					t.Errorf("%s: %s answered=%v known=%v, want %v %v", when, r.id, a, k, r.answered, r.known)
				}
				if r.admit == admitReplayed {
					replays[r.id] = positions[r.id]
				}
			}
		})
		fx.run(5 * time.Millisecond)
		seen := map[string]int64{}
		for _, resp := range fx.client.got[got:] {
			seen[resp.Req] = resp.Value.I
		}
		if len(fx.client.got)-got != len(replays) || !maps.Equal(seen, replays) {
			t.Fatalf("%s: client saw %+v, want the recorded response of each of %v once", when, fx.client.got[got:], replays)
		}
	}
	check("fresh", []row{
		{"cl.1", "client", admitNew, false, false},      // unseen
		{"cl.2", "client", admitAbsorbed, false, false}, // logged
		{"cl.3", "client", admitAbsorbed, true, true},   // staged and logged
		{"cl.4", "client", admitNew, true, true},        // staged, never logged
		{"old.1", "client", admitLate, true, true},      // staged, never logged, under the floor
		{"cl.5", "client", admitReplayed, true, true},   // delivered
		{"cl.6", "", admitAbsorbed, true, true},         // delivered, nobody to re-send to
		{"old.2", "client", admitLate, false, true},     // pruned below the floor
		{"old.3", "client", admitNew, false, false},     // above the floor
		{"r7", "client", admitNew, false, false},        // not a Builder id
		{"r8", "client", admitReplayed, true, true},     // not a Builder id, delivered
	})

	fx.do(func(ctx *sim.Context, j *journal) {
		j.logged("cl.4")
		j.logged("cl.5")
		j.logged("r8")
	})
	check("logged", []row{
		{"cl.4", "client", admitAbsorbed, true, true},
		{"cl.5", "client", admitReplayed, true, true},
		{"r8", "client", admitReplayed, true, true},
	})

	fx.do(func(ctx *sim.Context, j *journal) { j.resetSeen() })
	check("resetSeen", []row{
		{"cl.1", "client", admitNew, false, false},
		{"cl.2", "client", admitNew, false, false},
		{"cl.3", "client", admitAbsorbed, true, true},
		{"cl.4", "client", admitAbsorbed, true, true},
		{"old.1", "client", admitAbsorbed, true, true},
		{"cl.5", "client", admitReplayed, true, true},
		{"cl.6", "", admitAbsorbed, true, true},
		{"old.2", "client", admitLate, false, true},
		{"r8", "client", admitReplayed, true, true},
	})
}

// TestAllocsPerJournalCheckpoint pins the checkpoint's storage: the journal
// encodes every checkpoint into the encoder it keeps for its records, and
// the log overwrites its base in place, so once the first checkpoint has
// grown both, a checkpoint of the same journal allocates nothing in
// proportion to its payload — only the sorted key lists it walks.
func TestAllocsPerJournalCheckpoint(t *testing.T) {
	cfg := DefaultConfig()
	log := dlog.NewSimLog()
	j := newJournal("j", &cfg, log)
	for i := range 500 {
		id := fmt.Sprintf("cl.%d", i)
		*j.add(id) = deliveredEntry{resp: sysapi.Response{Req: id, Value: interp.IntV(int64(i))}, pos: int64(i)}
	}
	*j.add("gapply-7-1") = deliveredEntry{resp: sysapi.Response{Req: "gapply-7-1"}, pos: 600}
	j.dedupFloor["api"] = 3
	m := marks{epoch: 9, nextTID: 41}
	j.bootstrap(m)
	size := len(log.Recover(0).Checkpoint)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for range runs {
		j.bootstrap(m)
	}
	runtime.ReadMemStats(&after)
	spent := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	if spent > uint64(size)/10 {
		t.Fatalf("a repeated checkpoint of %d bytes allocated %d bytes in %d allocations: the encoder or the log's base is allocated afresh",
			size, spent, allocs)
	}
	t.Logf("a repeated checkpoint of %d bytes allocated %d bytes in %d allocations", size, spent, allocs)
}
