// The coordinator's exactly-once border, as one type.
//
// Everything that enters or leaves a coordinator group crosses the
// journal: an arrival is deduplicated against it before it is logged
// (exactly-once input), and a response is appended to it, made durable by
// a group-commit sync, and only then sent (exactly-once output). The epoch,
// fallback, recovery and fence code speak to it in verbs — admit, logged,
// answered, known, quiet, stage, stageRead, sync, synced, advance,
// checkpoint, restore — and never see a log sequence number. A fast read
// (read.go) crosses only the egress half: it leaves with a sync, but it is
// neither deduplicated nor recorded.
//
// Crash safety: the journal writes to a durable append log
// (internal/dlog). Released responses are group-committed before they are
// sent; on the serial schedule epoch advances are fsynced before any
// message of the new epoch leaves the node. On the pipelined schedule the
// advance record for N+1 is appended when N is promoted and rides N's
// group-commit fsync instead of forcing its own — merging the two syncs
// the serial schedule pays per epoch into one. At most one epoch advance
// may be volatile at a time (the next one blocks), and a restart
// compensates for the possibly-torn volatile record by over-bumping the
// recovered epoch, which keeps the view-change guard sound. After a crash,
// restore rebuilds exactly the facts the exactly-once contract depends on
// (epoch high-water mark, delivered responses, dedup floors); everything
// else (which arrivals are logged, cursor, pending retries) is
// reconstructed by the coordinator from the replayable source and the
// snapshot metadata, which are durable by their own contracts.
//
// The record and checkpoint encodings below are the journal's private
// format.
package stateflow

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// Record kinds of the journal's log (dlog reserves kind 0).
const (
	// recKindEpoch logs an epoch advance (see advance).
	recKindEpoch dlog.Kind = 1
	// recKindDelivered logs one released response (request id, source-log
	// position, release time, full response). Group-committed: the response
	// is sent only after the covering sync completes, so a response a
	// client saw is always recoverable — and replayable.
	recKindDelivered dlog.Kind = 2
)

// msgLogSynced is the journal's group-commit completion timer, delivered
// to the component that owns it: the batched fsync covering every record
// up to UpTo has finished, so the staged responses it covers may now be
// released to clients (write-ahead: send only what is recoverable).
// Deliberately carries no epoch — released responses belong to durably
// committed batches and stay valid across recoveries.
type msgLogSynced struct{ UpTo int64 }

// deliveredEntry is the journal's one record per request id: whether its
// arrival was logged, and how far its answer got. Answered, it is the
// durable egress state: enough to suppress the recovery replay's
// duplicate and to re-serve the response to a retrying client whose copy
// was lost. Records sit in the journal's arena (window.go), 64 to a chunk
// of the 8 KB size class (TestJournalArenaChunkFillsItsSizeClass).
type deliveredEntry struct {
	resp sysapi.Response
	// at is the virtual release time (drives retention pruning, and orders
	// the binding replay).
	at time.Duration
	// pos is the request's source-log position: entries at or above the
	// latest snapshot's offset are never pruned, because a recovery replay
	// can still re-execute them.
	pos int64
	// logged: the arrival reached this coordinator's source log, so a
	// further copy is an in-flight duplicate. Volatile: restore clears it.
	// A global transaction's embedded response is answered on its home
	// shard but never logged there.
	logged bool
	answer answerState // resp, at and pos are set from answerStaged on
}

// answerState is how far a request's response got. The zero value is
// answerDelivered, which every entry a checkpoint or a delivered-record
// restores is; a missing record reads as one too, so every read checks
// that the record exists.
type answerState uint8

const (
	answerDelivered answerState = iota // released: durable, and sent if anyone waits
	answerStaged                       // appended, waiting for its group-commit sync
	answerNone                         // logged, not answered yet
)

// stagedResponse is a response whose delivered-record is appended but
// whose covering group-commit sync has not completed: it must not be sent
// (write-ahead: a response a client saw must be recoverable) and is
// released by the msgLogSynced that confirms durability.
type stagedResponse struct {
	lsn     int64
	replyTo string
	ent     deliveredEntry
	// read marks a fast read's response (stageRead): it rides the sync of
	// the record it queued behind and leaves no delivered entry. epoch is
	// the cut the read saw, for the commit-order tap.
	read  bool
	epoch int64
}

// marks are the coordinator facts the journal keeps durable on its
// owner's behalf: they ride every checkpoint and come back from restore.
type marks struct {
	// epoch is the high-water mark of epochs ever opened; restore raises it
	// over every epoch record in the log suffix.
	epoch   int64
	nextTID aria.TID
	// sealed is the id of the newest snapshot the checkpoint vouches for:
	// its images are complete AND every delivered-record its state depends
	// on is inside the checkpoint. Recovery restores only sealed snapshots
	// — a snapshot whose images finished but whose seal never became
	// durable is treated as if it were never taken, which is what lets the
	// snapshot path skip the pre-image log force and ride the checkpoint's
	// own sync instead.
	sealed int64
	// sealedCut is the virtual time of the sealed snapshot's aligned cut
	// (when its epoch staged its last response). Recovery compares each
	// delivered entry's release time against it to decide whether the
	// entry's effects are inside the restored images or must be rebuilt by
	// the binding replay, so it must survive a reboot alongside sealed.
	sealedCut time.Duration
	// fenceDone is the newest global batch the owner unfenced for. The
	// restart scan only sees the closing markers past the restored cursor,
	// so without this mark a reboot would drop a re-sent unfence and report
	// a high-water mark under which a rebooted sequencer reuses batch ids.
	fenceDone int64
}

// admission is the ingress dedup's verdict on one arrival.
type admission int

const (
	// admitNew: never seen inside the dedup window — log it and run it.
	admitNew admission = iota
	// admitAbsorbed: a copy of a request that is logged and in flight, or
	// answered with nobody to re-send the answer to.
	admitAbsorbed
	// admitReplayed: already answered; the recorded response was re-sent.
	admitReplayed
	// admitLate: at or below its source's pruned dedup floor.
	admitLate
)

// journal is the durable ingress-dedup and egress state of one
// coordinator. It is a value field of its owner and is driven by a
// sim.Context and a dlog.SimLog alone.
type journal struct {
	node string // owner's component id (trace and flight lanes)
	cfg  *Config
	log  *dlog.SimLog

	// recs holds one record per request id, logged or answered. Its logged
	// flags dedupe arrivals before they reach the source log (exactly-once
	// input at the system border: a duplicated client send — a transport
	// retry, or chaos duplication — must not become a second transaction);
	// the owner rebuilds them at recovery (resetSeen + logged) from the
	// answered records + snapshot pending positions + the source-log
	// suffix, which together cover every id still inside the dedup window.
	// Its answers dedupe client responses across recovery replays
	// (exactly-once output at the system border), keep a recovery from
	// re-staging a response already in the pipeline, and re-serve the
	// recorded response to a retrying client whose copy was lost. The
	// answers are durable: rebuilt from the log on restart, compacted into
	// checkpoints, pruned by the retention window.
	//
	// A record is found by sequence (window.go): windows maps each request
	// source (a sysapi.Builder prefix + incarnation) to the window that
	// indexes its records, and last caches the one found last.
	recs    recArena
	windows map[string]*window
	last    *window
	// requests finds by name the records no window indexes: those of ids
	// SplitID does not read (test and bench scripts' "r1" and "t3", a
	// global apply's "gapply-7-1", "cl.07") and of strays, sequences too
	// far from the rest of their source to index; strays counts the last.
	requests map[string]uint32
	strays   int

	// dedupFloor records, per request-id source (a sysapi.Builder prefix +
	// incarnation), the highest sequence number ever pruned from the
	// journal. Every lower sequence from that source was answered and
	// retired, so an arrival at or below the floor is a very late
	// duplicate — absorbed instead of re-executed, closing the
	// duplicate-after-DedupRetention hole for builder-minted ids. Durable:
	// carried in the checkpoint that performed the prune.
	dedupFloor map[string]int64

	// staged responses (and fast reads) awaiting their group-commit sync,
	// FIFO by LSN.
	staged []stagedResponse

	// Write ordering. lastLSN is the newest appended record; durableLSN the
	// newest record a completed (or issued-blocking) sync covers; issuedLSN
	// the newest a group-commit sync was issued for (LSNs are never reused,
	// so it survives restore); epochLSN
	// the LSN of the newest epoch-advance record. The pipelined epoch
	// advance stays volatile (epochLSN > durableLSN) until the commit
	// epoch's group-commit sync sweeps it up — and while it is volatile,
	// the next advance is forced to block, so at most one epoch record is
	// ever at risk in a crash.
	lastLSN    int64
	durableLSN int64
	issuedLSN  int64
	epochLSN   int64
	// enc is the scratch buffer every log record is encoded into (the log
	// copies on append).
	enc interp.Encoder
	// tapRead, when set (Config.TraceCommits), is told of every fast read
	// response as it leaves.
	tapRead func(id string, epoch int64, v interp.Value)
}

func newJournal(node string, cfg *Config, log *dlog.SimLog) journal {
	j := journal{node: node, cfg: cfg, log: log}
	j.clear()
	return j
}

// admit is the ingress dedup every arrival passes before it is logged —
// client requests and global applies alike. A request whose response was
// already released is answered from the durable egress buffer (response
// replay: the sender is retrying because its copy was lost); a duplicate
// send of an in-flight request is absorbed, it is already logged; so is
// one at or below its source's dedup floor — the original was answered
// long ago, its entries pruned by the retention window and its client
// stopped retrying, so this copy is a very late wire duplicate and
// absorbing it (no response) is the only exactly-once option left: the
// recorded response is gone. On admitNew the caller logs the arrival and
// reports it with logged.
func (j *journal) admit(ctx *sim.Context, id, replyTo string) admission {
	ctx.Work(j.cfg.Costs.RoutingCPU)
	ent := j.find(id)
	switch {
	case ent != nil && ent.answer == answerDelivered && replyTo != "":
		j.send(ctx, replyTo, ent.resp)
		return admitReplayed
	case ent != nil && (ent.answer == answerDelivered || ent.logged):
		return admitAbsorbed
	case j.belowFloor(id):
		return admitLate
	}
	return admitNew
}

// belowFloor reports whether id sits at or below its source's dedup floor:
// it was answered, and the retention window has pruned the record since.
func (j *journal) belowFloor(id string) bool {
	src, seq, ok := sysapi.SplitID(id)
	if !ok {
		return false
	}
	floor, pruned := j.dedupFloor[src]
	return pruned && seq <= floor
}

// logged records that an admitted arrival reached the source log: further
// copies of it are in-flight duplicates. An answer already recorded for the
// id stays.
func (j *journal) logged(id string) { j.add(id).logged = true }

// resetSeen forgets every unanswered arrival: only the answered ids
// (delivered or staged) stay logged, and the owner re-reports what its
// durable ground truth still holds in flight. Ids pruned by the retention
// window stay pruned — that IS the dedup window contract.
func (j *journal) resetSeen() {
	j.sweep(func(_ string, _ int64, _ bool, ent *deliveredEntry) bool {
		ent.logged = true
		return ent.answer == answerNone
	})
}

// answered reports whether a request's response is already part of the
// egress state — released (delivered) or staged awaiting its sync. Either
// way the request must not execute again through the normal intake paths:
// its effects are the binding replay's business, not the batch machinery's.
func (j *journal) answered(id string) bool {
	ent := j.find(id)
	return ent != nil && ent.answer != answerNone
}

// known reports whether a request was ever answered, as far as the journal
// can still tell: its response is part of the egress state, or the
// retention window pruned it below its source's floor. A parked shard gives
// this verdict on the global transactions homed on it (ackFence); admit
// then re-serves or absorbs them.
func (j *journal) known(id string) bool { return j.answered(id) || j.belowFloor(id) }

// quiet reports that no response is waiting on a sync: every released
// effect is durable.
func (j *journal) quiet() bool { return len(j.staged) == 0 }

// size is how many answered requests the dedup window currently holds.
func (j *journal) size() int {
	n := 0
	j.released(func(deliveredEntry) { n++ })
	return n
}

// released visits every answered entry — delivered or staged (its sync is
// in flight and cannot be recalled) — in no particular order.
func (j *journal) released(visit func(deliveredEntry)) {
	j.sweep(func(_ string, _ int64, _ bool, ent *deliveredEntry) bool {
		if ent.answer != answerNone {
			visit(*ent)
		}
		return false
	})
}

func (j *journal) send(ctx *sim.Context, to string, resp sysapi.Response) {
	ctx.Send(to, sysapi.MsgResponse{Response: resp}, j.cfg.Costs.ClientLink.Sample(ctx.Rand()))
}

// stage appends one response's delivered-record and queues its release
// on the next group-commit sync. replyTo may be empty (a request sent with
// no reply address): the record is then a pure dedup entry and no send
// happens at sync time.
func (j *journal) stage(ctx *sim.Context, replyTo string, ent deliveredEntry) {
	id := ent.resp.Req
	rec := j.add(id)
	if rec.answer != answerNone {
		// Delivered, or already in the pipeline (a stall recovery replayed
		// its transaction).
		return
	}
	ctx.Work(j.cfg.Costs.LogAppendCPU)
	j.enc.Reset()
	appendDelivered(&j.enc, id, ent)
	lsn := j.log.Append(dlog.Record{Kind: recKindDelivered, At: int64(ent.at), Data: j.enc.Bytes()})
	j.lastLSN = lsn
	j.staged = append(j.staged, stagedResponse{lsn: lsn, replyTo: replyTo, ent: ent})
	ent.logged, ent.answer = rec.logged, answerStaged
	*rec = ent
}

// stageRead releases a fast read's response with the sync that makes every
// delivered-record appended so far durable — the records of the epoch the
// read saw among them — or at once when none is waiting for one. It appends
// nothing: a read has no effects to recover, and a retry re-executes it.
func (j *journal) stageRead(ctx *sim.Context, replyTo string, resp sysapi.Response, epoch int64) {
	s := stagedResponse{replyTo: replyTo, ent: deliveredEntry{resp: resp}, read: true, epoch: epoch}
	if len(j.staged) == 0 {
		j.release(ctx, s)
		return
	}
	s.lsn = j.staged[len(j.staged)-1].lsn
	j.staged = append(j.staged, s)
}

// release sends one staged response whose covering sync completed.
func (j *journal) release(ctx *sim.Context, s stagedResponse) {
	if s.read && j.tapRead != nil {
		j.tapRead(s.ent.resp.Req, s.epoch, s.ent.resp.Value)
	}
	if s.replyTo != "" {
		j.send(ctx, s.replyTo, s.ent.resp)
	}
}

// sync issues one batched sync covering every record appended so far —
// staged delivered-records and, pipelined, the successor epoch's volatile
// advance record — and schedules the release at its completion: one fsync
// per batch, shared across the two adjacent epochs, instead of one per
// response plus one per epoch advance. With nothing staged there is
// nothing to release and no sync is issued; nor when a sync already issued
// covers every staged record.
func (j *journal) sync(ctx *sim.Context) {
	if n := len(j.staged); n == 0 || j.staged[n-1].lsn <= j.issuedLSN {
		return
	}
	delay := j.cfg.Costs.LogGroupDelay
	upTo := j.log.SyncAt(ctx.Now() + delay)
	j.issuedLSN = upTo
	if tr := j.cfg.Tracer; tr.Enabled() {
		tr.Span(j.node, "dlog", "commit.fsync", ctx.Now(), ctx.Now()+delay,
			"upto", strconv.FormatInt(upTo, 10),
			"staged", strconv.Itoa(len(j.staged)))
	}
	ctx.After(delay, msgLogSynced{UpTo: upTo})
}

// synced releases every staged response the completed sync covers: the
// delivered-records are durable, so the responses may now be seen by
// clients. Valid at any time — released state is from durably committed
// batches, whatever recovery is in flight around it.
func (j *journal) synced(ctx *sim.Context, m msgLogSynced) {
	j.markDurable(m.UpTo)
	n := 0
	for n < len(j.staged) && j.staged[n].lsn <= m.UpTo {
		s := j.staged[n]
		if !s.read {
			rec := j.add(s.ent.resp.Req)
			logged := rec.logged
			*rec = s.ent // answerDelivered
			rec.logged = logged
		}
		j.release(ctx, s)
		n++
	}
	// Slide the remainder down instead of re-slicing forward, so the queue
	// keeps its capacity; the vacated tail must not pin released responses.
	rest := copy(j.staged, j.staged[n:])
	clear(j.staged[rest:])
	j.staged = j.staged[:rest]
}

func (j *journal) markDurable(lsn int64) {
	if lsn > j.durableLSN {
		j.durableLSN = lsn
	}
}

// advance durably records an epoch advance. Blocking (the serial schedule,
// recovery view changes, and any advance while the previous one is still
// volatile): the record is fsynced before any message of the new epoch
// leaves the coordinator — the view-change guard is only sound if a
// restart recovers an epoch >= every epoch ever spoken, minus the single
// volatile advance the restart path compensates for. Non-blocking (the
// pipelined steady state): the record is appended volatile and rides the
// commit epoch's group-commit sync, merging the per-epoch fsync into the
// per-batch one.
func (j *journal) advance(ctx *sim.Context, epoch int64, blocking bool) {
	if j.epochLSN > j.durableLSN {
		// The previous advance is still volatile: never let two epoch
		// records be at risk at once (the restart path compensates for
		// exactly one).
		blocking = true
	}
	ctx.Work(j.cfg.Costs.LogAppendCPU)
	j.enc.Reset()
	j.enc.Varint(epoch)
	lsn := j.log.Append(dlog.Record{Kind: recKindEpoch, At: int64(ctx.Now()), Data: j.enc.Bytes()})
	j.lastLSN, j.epochLSN = lsn, lsn
	if blocking {
		ctx.Work(j.cfg.Costs.LogSyncCPU)
		j.markDurable(j.log.SyncAt(ctx.Now()))
	}
}

// checkpoint folds the journal into a log checkpoint carrying the owner's
// marks: it prunes settled dedup state, compacts the log, and releases
// whatever was staged. offset is the source offset of the snapshot the
// checkpoint seals — the prune bound.
func (j *journal) checkpoint(ctx *sim.Context, m marks, offset int64) {
	// A delivered entry may leave the journal once (a) its release is
	// older than the retention window, so no client retry or delayed wire
	// duplicate can still name it, and (b) its source position precedes
	// the sealed snapshot's offset, so no recovery replay can re-execute it
	// (a replayed transaction without its delivered-entry would re-send
	// its response).
	if retention := j.cfg.DedupRetention; retention > 0 {
		j.sweep(func(src string, seq int64, ok bool, ent *deliveredEntry) bool {
			if ent.answer != answerDelivered || ent.at+retention > ctx.Now() || ent.pos >= offset {
				return false
			}
			// Pruning forfeits the recorded response, so raise the
			// source's dedup floor: any later arrival of this id (or a
			// lower sequence) is a very late duplicate that must be
			// absorbed, not re-executed. The floor rides this same
			// checkpoint, so it is durable exactly when the prune is.
			if cur, has := j.dedupFloor[src]; ok && (!has || seq > cur) {
				j.dedupFloor[src] = seq
			}
			return true
		})
	}
	// Staged-but-unreleased responses are durable facts too (their records
	// are about to be compacted away): the checkpoint carries them, so a
	// later crash still suppresses their replays — the un-sent responses
	// are then served via retry replay.
	payload := j.encodeCheckpoint(m)
	ctx.Work(j.cfg.Costs.StateCPU(len(payload)) + j.cfg.Costs.LogSyncCPU)
	j.log.Checkpoint(ctx.Now(), payload)
	// The checkpoint write is itself durable and subsumes every record
	// appended so far — including a volatile pipelined epoch advance
	// (m.epoch is the latest opened epoch) and the staged responses of the
	// snapshot epoch, which release now: one checkpoint fsync stands in for
	// the batch's group commit, the snapshot seal and the epoch record at
	// once.
	j.synced(ctx, msgLogSynced{UpTo: j.lastLSN})
}

// bootstrap writes the initial checkpoint of a deployment that has not
// started yet (no clock, nothing appended): it seals the preload snapshot.
func (j *journal) bootstrap(m marks) {
	j.log.Checkpoint(0, j.encodeCheckpoint(m))
}

// recovered is what restore found in the durable image.
type recovered struct {
	marks
	records int // log records past the checkpoint
	corrupt int // of them (checkpoint included), undecodable and skipped
}

// restore rebuilds the journal from the log's durable image after the
// owner's memory was lost: the checkpoint's egress state and floors, plus
// every delivered-record appended since; the returned marks carry the
// highest epoch the image speaks of. Torn log tails were already discarded
// by the device's crash contract; write-ahead ordering guarantees nothing
// torn was ever externalized. No arrival comes back logged — the owner
// re-reports them (resetSeen) once it knows its source cursor.
//
// A record that fails to decode is corruption outside the crash contract.
// Recovery carries on without it — a lost checkpoint starts from zero (the
// replayable source and snapshots still bound the damage), a lost epoch
// record is covered by its neighbours, a lost delivered-record means its
// response can be re-executed and re-sent — but never silently: each one
// is counted and leaves a flight-recorder line.
func (j *journal) restore(ctx *sim.Context) recovered {
	img := j.log.Recover(ctx.Now())
	out := recovered{records: len(img.Records)}
	skip := func(what string, err error) {
		out.corrupt++
		if f := j.cfg.Flight; f.Enabled() {
			f.Recordf(ctx.Now(), j.node, "corrupt", "skipped undecodable %s: %v", what, err)
		}
	}
	m, err := j.decodeCheckpoint(img.Checkpoint)
	if err != nil {
		skip("checkpoint", err)
		m = marks{}
		j.clear()
	}
	out.marks = m
	j.staged = nil
	j.lastLSN, j.durableLSN, j.epochLSN = 0, 0, 0
	ctx.Work(j.cfg.Costs.LogSyncCPU)
	for _, r := range img.Records {
		ctx.Work(j.cfg.Costs.LogAppendCPU)
		switch r.Kind {
		case recKindEpoch:
			e, err := interp.NewDecoder(r.Data).Varint()
			if err != nil {
				skip("epoch record", err)
			} else if e > out.epoch {
				out.epoch = e
			}
		case recKindDelivered:
			id, ent, err := readDelivered(interp.NewDecoder(r.Data))
			if err != nil {
				skip("delivered record", err)
			} else {
				*j.add(id) = ent
			}
		}
	}
	return out
}

func appendDelivered(e *interp.Encoder, id string, ent deliveredEntry) {
	e.Str(id)
	appendAnswer(e, ent)
}

// appendAnswer appends a delivered record's fields after its id.
func appendAnswer(e *interp.Encoder, ent deliveredEntry) {
	e.Varint(ent.pos)
	e.Varint(int64(ent.at))
	e.Str(ent.resp.Req)
	e.Value(ent.resp.Value)
	e.Str(ent.resp.Err)
	e.Varint(int64(ent.resp.Retries))
}

func readDelivered(d *interp.Decoder) (string, deliveredEntry, error) {
	fail := func(err error) (string, deliveredEntry, error) {
		return "", deliveredEntry{}, fmt.Errorf("stateflow: delivered record: %w", err)
	}
	id, err := d.Str()
	if err != nil {
		return fail(err)
	}
	pos, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	at, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	req, err := d.Str()
	if err != nil {
		return fail(err)
	}
	val, err := d.Value()
	if err != nil {
		return fail(err)
	}
	errStr, err := d.Str()
	if err != nil {
		return fail(err)
	}
	retries, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	return id, deliveredEntry{
		resp: sysapi.Response{Req: req, Value: val, Err: errStr, Retries: int(retries)},
		at:   time.Duration(at),
		pos:  pos,
	}, nil
}

// encodeCheckpoint writes the compacted state a log checkpoint carries:
// everything the coordinator must remember that individual records no
// longer cover once the log prefix is dropped — of the requests, the
// answered ones (delivered or staged): the windows' in (source, seq) order,
// then the others in id order, so same-run checkpoints are byte-identical.
func (j *journal) encodeCheckpoint(m marks) []byte {
	e := interp.NewEncoder()
	e.Varint(m.epoch)
	e.Varint(int64(m.nextTID))
	e.Varint(m.sealed)
	e.Varint(int64(m.sealedCut))
	e.Varint(m.fenceDone)
	n := 0
	j.released(func(deliveredEntry) { n++ })
	e.Uvarint(uint64(n))
	var id []byte
	for _, src := range slices.Sorted(maps.Keys(j.windows)) {
		w := j.windows[src]
		w.sweep(func(seq int64, p uint32) bool {
			if ent := j.recs.at(p); ent.answer != answerNone {
				// The id as Builder.At spells it, without a string.
				id = strconv.AppendInt(append(append(id[:0], src...), '.'), seq, 10)
				e.Uvarint(uint64(len(id)))
				e.Append(id)
				appendAnswer(e, *ent)
			}
			return false
		})
	}
	for _, id := range slices.Sorted(maps.Keys(j.requests)) {
		if ent := j.recs.at(j.requests[id]); ent.answer != answerNone {
			appendDelivered(e, id, *ent)
		}
	}
	e.Uvarint(uint64(len(j.dedupFloor)))
	for _, src := range slices.Sorted(maps.Keys(j.dedupFloor)) {
		e.Str(src)
		e.Varint(j.dedupFloor[src])
	}
	return e.Bytes()
}

// decodeCheckpoint is encodeCheckpoint's inverse: it replaces the journal's
// records and floors with the checkpoint's and returns its marks. An empty
// payload (a log that never checkpointed) decodes to the zero state. Every
// record it adds is delivered and not logged.
func (j *journal) decodeCheckpoint(data []byte) (m marks, err error) {
	j.clear()
	if len(data) == 0 {
		return m, nil
	}
	fail := func(err error) (marks, error) { return m, fmt.Errorf("stateflow: checkpoint: %w", err) }
	d := interp.NewDecoder(data)
	var head [5]int64
	for i := range head {
		if head[i], err = d.Varint(); err != nil {
			return fail(err)
		}
	}
	m = marks{epoch: head[0], nextTID: aria.TID(head[1]), sealed: head[2], sealedCut: time.Duration(head[3]),
		fenceDone: head[4]}
	n, err := d.Uvarint()
	if err != nil {
		return fail(err)
	}
	for i := uint64(0); i < n; i++ {
		id, ent, err := readDelivered(d)
		if err != nil {
			return m, err
		}
		*j.add(id) = ent
	}
	nf, err := d.Uvarint()
	if err != nil {
		return fail(err)
	}
	for i := uint64(0); i < nf; i++ {
		src, err := d.Str()
		if err != nil {
			return fail(err)
		}
		floor, err := d.Varint()
		if err != nil {
			return fail(err)
		}
		j.dedupFloor[src] = floor
	}
	return m, nil
}
