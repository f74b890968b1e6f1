// The commit-order tap (Config.TraceCommits): the effective serial order a
// run's surviving state was built in, as the linearizability checker's
// serial mode reads it. Test instrumentation: it grows with the run, and it
// is state about the whole run rather than protocol state, so a coordinator
// reboot keeps it.
package stateflow

import "statefulentities.dev/stateflow/internal/interp"

// tapGap spaces consecutive commits in the tap, so the fast reads served
// between two commits fit between their positions.
const tapGap = 1 << 32

// commitTap records each committed request's position in the serial order —
// epochs in order, standard commits in TID order, then the chain's in the
// order they were answered. A recovery that rolls a commit back and
// re-executes it overwrites the entry, so the tap always reflects the order
// the surviving state was built in.
//
// A fast read is placed at the end of the epoch whose state it saw, as an
// offset behind that epoch's last commit (its anchor) rather than at a fixed
// number: a binding replay re-commits the anchor and everything released
// before it in release order, so the read moves with the state it saw. A
// read is tapped when its response leaves; a retry re-executes it, and each
// serve is kept, since the client keeps whichever answer reaches it first.
type commitTap struct {
	serial int64
	seq    map[string]int64
	last   string // the newest commit ("": none yet)
	// epochs and snaps give the anchor of each finished epoch and of each
	// snapshot's cut: the newest commit at that point ("": none). Epoch -1
	// is a worker's applied epoch before its first.
	epochs map[int64]string
	snaps  map[int64]string
	// reads holds every serve of every fast read, in serve order; behind
	// counts the reads placed behind each anchor so far.
	reads  map[string][]tappedRead
	behind map[string]int64
}

// tappedRead is one serve of a fast read: the k-th read placed behind anchor,
// and the value it answered with.
type tappedRead struct {
	anchor string
	k      int64
	value  interp.Value
}

func newCommitTap() *commitTap {
	return &commitTap{seq: map[string]int64{}, epochs: map[int64]string{-1: ""}, snaps: map[int64]string{},
		reads: map[string][]tappedRead{}, behind: map[string]int64{}}
}

// commit places a committed request next in the serial order. Like every
// method here it is a no-op on a nil tap (tracing off).
func (t *commitTap) commit(id string) {
	if t == nil {
		return
	}
	t.serial += tapGap
	t.seq[id] = t.serial
	t.last = id
}

// epochDone marks the end of an epoch: every commit it installed is placed.
func (t *commitTap) epochDone(epoch int64) {
	if t != nil {
		t.epochs[epoch] = t.last
	}
}

// snapshot marks a snapshot's cut, taken where the epoch it aligns with ends.
func (t *commitTap) snapshot(id int64) {
	if t != nil {
		t.snaps[id] = t.last
	}
}

// restored marks a recovery's view epoch, whose state is the restored
// snapshot's (id 0, or the preload's: no commit).
func (t *commitTap) restored(epoch, snapshotID int64) {
	if t != nil {
		t.epochs[epoch] = t.snaps[snapshotID]
	}
}

// read places one serve of fast read id, which saw the state at the end of
// epoch and answered v.
func (t *commitTap) read(id string, epoch int64, v interp.Value) {
	if t == nil {
		return
	}
	anchor, ok := t.epochs[epoch]
	if !ok {
		return // no such cut: left out, so the checker reports the read
	}
	t.behind[anchor]++
	t.reads[id] = append(t.reads[id], tappedRead{anchor: anchor, k: t.behind[anchor], value: v})
}

// serials returns request id → serial position. A read served more than
// once is placed by its first serve that answered what kept reports the
// client kept (nil kept, or no match: the latest serve). Every serve is
// placed right for what it saw, and the first of equal answers is the one
// placed before anything the client sent after receiving it.
func (t *commitTap) serials(kept func(id string) (interp.Value, bool)) map[string]int64 {
	if t == nil {
		return map[string]int64{}
	}
	out := make(map[string]int64, len(t.seq)+len(t.reads))
	for id, s := range t.seq {
		out[id] = s
	}
	for id, serves := range t.reads {
		r := serves[len(serves)-1]
		if kept != nil {
			if v, ok := kept(id); ok {
				for _, s := range serves {
					if s.value.Equal(v) {
						r = s
						break
					}
				}
			}
		}
		out[id] = t.seq[r.anchor] + r.k
	}
	return out
}
