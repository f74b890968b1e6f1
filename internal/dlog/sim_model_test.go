package dlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// naiveLog is the reference model of SimLog: the same device contract
// with the sync written the obvious way — every sync visits every live
// record. SimLog's sync stops at the first record it cannot change; the
// randomized test below holds the two to identical observable behaviour.
type naiveLog struct {
	base    []byte
	hasBase bool
	recs    []simRec
	stats   Stats
}

func (l *naiveLog) append(rec Record) {
	l.recs = append(l.recs, simRec{rec: rec, durableAt: volatile})
	l.stats.Appends++
	l.stats.AppendedBytes += len(rec.Data)
}

func (l *naiveLog) syncAll(at time.Duration) {
	l.stats.Syncs++
	for i := range l.recs {
		if l.recs[i].durableAt == volatile || l.recs[i].durableAt > at {
			l.recs[i].durableAt = at
		}
	}
}

func (l *naiveLog) checkpoint(payload []byte) {
	l.base, l.hasBase = payload, true
	l.stats.Checkpoints++
	l.stats.Compacted += len(l.recs)
	l.stats.Syncs++
	l.recs = nil
}

func (l *naiveLog) crash(at time.Duration) {
	keep := 0
	for keep < len(l.recs) && l.recs[keep].durableAt != volatile && l.recs[keep].durableAt <= at {
		keep++
	}
	if keep == len(l.recs) {
		return
	}
	l.stats.TornTails++
	l.stats.LostRecords += len(l.recs) - keep - 1
	l.recs = l.recs[:keep]
}

func (l *naiveLog) recover(now time.Duration) Recovered {
	l.crash(now)
	var out Recovered
	if l.hasBase {
		out.Checkpoint = l.base
	}
	for _, r := range l.recs {
		out.Records = append(out.Records, r.rec)
	}
	return out
}

// TestSimLogMatchesNaiveSyncModel runs random Append / SyncAt / SyncNow /
// Checkpoint / Crash / Recover sequences through SimLog and the naive
// model. Sync times are drawn on both sides of the clock and of the
// syncs still pending, so a blocking sync regularly completes before an
// earlier group commit would have (and must pull its records' completion
// forward), and crashes land between a sync's issue and its completion.
// Every stored record and every recovered payload is compared with the
// model's. Seeds above 100 run longer and never checkpoint, so their logs
// cross record chunks, and payloads of up to a third of a payload chunk
// cross payload chunks and take allocations of their own.
func TestSimLogMatchesNaiveSyncModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := 60
		if seed > 100 {
			steps = 600
		}
		real, model := NewSimLog(), &naiveLog{}
		now := time.Duration(0)
		var script []string
		check := func() {
			t.Helper()
			if real.Stats() != model.stats || real.recs.Len() != len(model.recs) {
				t.Fatalf("seed %d after %v:\n SimLog %+v len %d\n  model %+v len %d",
					seed, script, real.Stats(), real.recs.Len(), model.stats, len(model.recs))
			}
			for i, want := range model.recs {
				if got := real.recs.At(i); got.durableAt != want.durableAt || got.rec.Kind != want.rec.Kind || got.rec.At != want.rec.At || !bytes.Equal(got.rec.Data, want.rec.Data) {
					t.Fatalf("seed %d after %v: record %d is %+v completing at %v, model says %+v at %v",
						seed, script, i, got.rec, got.durableAt, want.rec, want.durableAt)
				}
			}
		}
		for step := 0; step < steps; step++ {
			now += time.Duration(rng.Intn(4)) * time.Millisecond
			switch op := rng.Intn(12); {
			case op < 5:
				data := fmt.Append(nil, "r", step)
				if rng.Intn(4) == 0 {
					data = append(data, make([]byte, rng.Intn(payloadChunk/3))...)
				}
				r := Record{Kind: Kind(1 + rng.Intn(3)), At: int64(now), Data: data}
				script = append(script, "append")
				if lsn := real.Append(r); lsn != int64(model.stats.Appends+1) {
					t.Fatalf("seed %d: LSN %d after %d appends", seed, lsn, model.stats.Appends)
				}
				model.append(r)
			case op < 7:
				done := now + time.Duration(rng.Intn(8))*time.Millisecond
				script = append(script, fmt.Sprint("syncat ", done))
				if upTo := real.SyncAt(done); upTo != int64(model.stats.Appends) {
					t.Fatalf("seed %d: SyncAt covers up to %d of %d appends", seed, upTo, model.stats.Appends)
				}
				model.syncAll(done)
			case op < 9:
				script = append(script, fmt.Sprint("syncnow ", now))
				real.SyncNow(now)
				model.syncAll(now)
			case op == 9 && steps == 60:
				payload := []byte(fmt.Sprint("ck", step))
				script = append(script, "checkpoint")
				real.Checkpoint(now, payload)
				model.checkpoint(payload)
			case op <= 10:
				script = append(script, fmt.Sprint("crash ", now))
				real.Crash(now)
				model.crash(now)
			default:
				script = append(script, fmt.Sprint("recover ", now))
				if got, want := real.Recover(now), model.recover(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d after %v:\n recovered %+v\n     model %+v", seed, script, got, want)
				}
			}
			check()
		}
		if got, want := real.Recover(now+time.Second), model.recover(now+time.Second); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: final image %+v, model %+v", seed, got, want)
		}
		check()
	}
}
