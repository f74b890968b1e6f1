package dlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func rec(kind Kind, s string) Record { return Record{Kind: kind, Data: []byte(s)} }

// TestSimLogCrashPointSweep generates scripted op sequences (appends,
// blocking syncs, group-commit syncs, checkpoints) from seeds and crashes
// the log at every interesting virtual instant of each script. After
// every crash the recovered image must be exactly the durable prefix:
// records covered by a completed sync, nothing from the volatile tail,
// and a torn tail detected whenever one existed — never replayed.
func TestSimLogCrashPointSweep(t *testing.T) {
	type op struct {
		kind string // append | syncnow | syncat | checkpoint
		at   time.Duration
		done time.Duration // syncat completion
		data string
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []op
		now := time.Duration(0)
		n := 6 + rng.Intn(10)
		for i := 0; i < n; i++ {
			now += time.Duration(rng.Intn(5)+1) * time.Millisecond
			switch rng.Intn(5) {
			case 0:
				ops = append(ops, op{kind: "syncnow", at: now})
			case 1:
				ops = append(ops, op{kind: "syncat", at: now,
					done: now + time.Duration(rng.Intn(4)+1)*time.Millisecond})
			case 2:
				ops = append(ops, op{kind: "checkpoint", at: now, data: fmt.Sprintf("ckpt-%d-%d", seed, i)})
			default:
				ops = append(ops, op{kind: "append", at: now, data: fmt.Sprintf("rec-%d-%d", seed, i)})
			}
		}
		// Crash points: just after every op, and between every op and the
		// next (half-step), so group-commit completions land on both sides.
		var crashes []time.Duration
		for i, o := range ops {
			crashes = append(crashes, o.at)
			next := o.at + 10*time.Millisecond
			if i+1 < len(ops) {
				next = ops[i+1].at
			}
			crashes = append(crashes, o.at+(next-o.at)/2)
		}
		for _, crashAt := range crashes {
			l := NewSimLog()
			// expected durable state, tracked independently.
			var base string
			var durable []string
			var tail []struct {
				data      string
				durableAt time.Duration
			}
			for _, o := range ops {
				if o.at > crashAt {
					break
				}
				switch o.kind {
				case "append":
					l.Append(rec(1, o.data))
					tail = append(tail, struct {
						data      string
						durableAt time.Duration
					}{o.data, -1})
				case "syncnow":
					l.SyncNow(o.at)
					for i := range tail {
						if tail[i].durableAt < 0 || tail[i].durableAt > o.at {
							tail[i].durableAt = o.at
						}
					}
				case "syncat":
					l.SyncAt(o.done)
					for i := range tail {
						if tail[i].durableAt < 0 || tail[i].durableAt > o.done {
							tail[i].durableAt = o.done
						}
					}
				case "checkpoint":
					l.Checkpoint(o.at, []byte(o.data))
					base = o.data
					tail = tail[:0]
				}
			}
			// Records whose sync completed by the crash are durable; the
			// volatile remainder must vanish (first as a torn tail).
			volatile := 0
			for _, r := range tail {
				if r.durableAt >= 0 && r.durableAt <= crashAt {
					durable = append(durable, r.data)
				} else {
					volatile++
				}
			}
			got := l.Recover(crashAt)
			if string(got.Checkpoint) != base {
				t.Fatalf("seed %d crash@%s: checkpoint %q, want %q", seed, crashAt, got.Checkpoint, base)
			}
			if len(got.Records) != len(durable) {
				t.Fatalf("seed %d crash@%s: %d records recovered, want %d (volatile %d)",
					seed, crashAt, len(got.Records), len(durable), volatile)
			}
			for i, r := range got.Records {
				if string(r.Data) != durable[i] {
					t.Fatalf("seed %d crash@%s: record %d = %q, want %q",
						seed, crashAt, i, r.Data, durable[i])
				}
			}
			if got.Torn != (volatile > 0) {
				t.Fatalf("seed %d crash@%s: torn=%v with %d volatile records",
					seed, crashAt, got.Torn, volatile)
			}
		}
	}
}

// TestSimLogSyncAtGroupCommit pins the group-commit window: records are
// volatile until the sync's completion instant, durable at and after it.
func TestSimLogSyncAtGroupCommit(t *testing.T) {
	l := NewSimLog()
	l.Append(rec(1, "a"))
	lsn := l.SyncAt(5 * time.Millisecond)
	if lsn != 1 {
		t.Fatalf("lsn = %d", lsn)
	}
	if got := NewSimLogFrom(l).Recover(4 * time.Millisecond); len(got.Records) != 0 || !got.Torn {
		t.Fatalf("pre-completion crash: %d records, torn=%v", len(got.Records), got.Torn)
	}
	if got := l.Recover(5 * time.Millisecond); len(got.Records) != 1 || got.Torn {
		t.Fatalf("post-completion recover: %d records, torn=%v", len(got.Records), got.Torn)
	}
}

// NewSimLogFrom deep-copies a SimLog, payloads included, so a test can
// probe alternative crash instants of one history.
func NewSimLogFrom(l *SimLog) *SimLog {
	c := &SimLog{base: bytes.Clone(l.base), hasBase: l.hasBase}
	for i := range l.recs.Len() {
		r := l.recs.At(i)
		c.Append(r.rec)
		c.recs.At(i).durableAt = r.durableAt
	}
	c.nextLSN, c.stats = l.nextLSN, l.stats
	return c
}

// TestFileLogTornTailByteSweep builds a real log file, then replays every
// possible crash prefix: for each byte length, the reopened log must
// recover exactly the records whose frames fit entirely in the prefix,
// flag a torn tail whenever the cut lands mid-frame, and physically
// truncate the torn bytes so they are never replayed or extended.
func TestFileLogTornTailByteSweep(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.dlog")
	l, err := OpenFile(full)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		kind Kind
		data string
	}
	steps := []step{{1, "alpha"}, {2, "beta"}, {KindCheckpoint, "ckpt-1"}, {1, "gamma"}, {3, "delta-with-longer-payload"}}
	// frameEnds[i] = file size after i logical steps (checkpoint resets
	// the file via rename, so sizes restart there).
	for _, s := range steps {
		if s.kind == KindCheckpoint {
			if err := l.Checkpoint([]byte(s.data)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := l.Append(Record{Kind: s.kind, Data: []byte(s.data)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Expected record boundaries in the final file: magic, checkpoint
	// frame, then gamma and delta frames.
	var boundaries []int
	off := len(fileMagic)
	boundaries = append(boundaries, off)
	var wantAt []Recovered // durable image per boundary index
	wantAt = append(wantAt, Recovered{})
	img := Recovered{}
	for {
		r, next, ok := parseFrame(buf, off)
		if !ok {
			break
		}
		if r.Kind == KindCheckpoint {
			img.Checkpoint = r.Data
			img.Records = nil
		} else {
			img.Records = append(img.Records, r)
		}
		off = next
		boundaries = append(boundaries, off)
		cp := Recovered{Checkpoint: img.Checkpoint}
		cp.Records = append([]Record(nil), img.Records...)
		wantAt = append(wantAt, cp)
	}
	if off != len(buf) {
		t.Fatalf("full file has trailing garbage at %d/%d", off, len(buf))
	}
	if len(boundaries) != 4 { // magic, ckpt, gamma, delta
		t.Fatalf("unexpected boundary count %d", len(boundaries))
	}

	for cut := 0; cut <= len(buf); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.dlog", cut))
		if err := os.WriteFile(path, buf[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cl, err := OpenFile(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := cl.Recovered()
		// The durable image is the one at the last boundary <= cut (cuts
		// inside the magic recover to an empty, re-initialized log).
		bi := 0
		for i, b := range boundaries {
			if b <= cut {
				bi = i
			}
		}
		want := wantAt[bi]
		if string(got.Checkpoint) != string(want.Checkpoint) || len(got.Records) != len(want.Records) {
			t.Fatalf("cut %d: recovered ckpt=%q %d records, want ckpt=%q %d records",
				cut, got.Checkpoint, len(got.Records), want.Checkpoint, len(want.Records))
		}
		for i := range want.Records {
			if got.Records[i].Kind != want.Records[i].Kind ||
				!bytes.Equal(got.Records[i].Data, want.Records[i].Data) {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, got.Records[i], want.Records[i])
			}
		}
		wantTorn := cut != boundaries[bi] && cut != 0 // empty file = fresh, not torn
		if got.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v", cut, got.Torn, wantTorn)
		}
		// Torn bytes must be physically gone: appending after recovery and
		// reopening yields the durable records plus the new one, only.
		if err := cl.Append(rec(9, "post")); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFile(path)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		got2 := re.Recovered()
		if len(got2.Records) != len(want.Records)+1 || got2.Torn {
			t.Fatalf("cut %d reopen: %d records torn=%v, want %d records torn=false",
				cut, len(got2.Records), got2.Torn, len(want.Records)+1)
		}
		if string(got2.Records[len(got2.Records)-1].Data) != "post" {
			t.Fatalf("cut %d reopen: tail record %q", cut, got2.Records[len(got2.Records)-1].Data)
		}
		re.Close()
	}
}

// TestFileLogTimestampRoundTrip: the owner-stamped write time travels in
// the durable framing (not the payload) and survives append, close and
// replay byte-for-byte — the hook age-based journal retention hangs off.
func TestFileLogTimestampRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ts.dlog")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stamps := []int64{0, 1, 1722470400123456789, -7}
	for i, at := range stamps {
		if err := l.Append(Record{Kind: 1, At: at, Data: []byte(fmt.Sprintf("r%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Recovered()
	if len(got.Records) != len(stamps) {
		t.Fatalf("recovered %d records, want %d", len(got.Records), len(stamps))
	}
	for i, r := range got.Records {
		if r.At != stamps[i] {
			t.Fatalf("record %d: At=%d, want %d", i, r.At, stamps[i])
		}
	}
}

// TestFileLogCorruptTail flips bytes inside the last frame: the CRC must
// catch the corruption and recovery must stop before the bad frame.
func TestFileLogCorruptTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.dlog")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1, "good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1, "evil")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	buf, _ := os.ReadFile(path)
	for i := len(buf) - 3; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		p := filepath.Join(dir, fmt.Sprintf("mut-%d.dlog", i))
		os.WriteFile(p, mut, 0o644)
		cl, err := OpenFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got := cl.Recovered()
		if !got.Torn || len(got.Records) != 1 || string(got.Records[0].Data) != "good" {
			t.Fatalf("flip@%d: torn=%v records=%d", i, got.Torn, len(got.Records))
		}
		cl.Close()
	}
}

// TestFileLogRejectsForeignFiles: bytes that are not a (possibly torn)
// dlog are refused rather than truncated or replayed.
func TestFileLogRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"short-garbage.dlog": []byte("XYZ"),
		"long-garbage.dlog":  []byte("definitely not a dlog header"),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(p); err == nil {
			t.Fatalf("%s: foreign file accepted", name)
		}
	}
}

// TestFileLogCheckpointCompaction: a checkpoint bounds the file and a
// reopen recovers base + post-checkpoint records.
func TestFileLogCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.dlog")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := l.Append(rec(1, fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	big, _ := os.Stat(path)
	if err := l.Checkpoint([]byte("summary")); err != nil {
		t.Fatal(err)
	}
	small, _ := os.Stat(path)
	if small.Size() >= big.Size() {
		t.Fatalf("checkpoint did not compact: %d -> %d bytes", big.Size(), small.Size())
	}
	if err := l.Append(rec(2, "after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Recovered()
	if string(got.Checkpoint) != "summary" || len(got.Records) != 1 ||
		string(got.Records[0].Data) != "after" || got.Torn {
		t.Fatalf("recovered %+v", got)
	}
	if st := re.Stats(); st.TornTails != 0 {
		t.Fatalf("unexpected torn tails: %+v", st)
	}
}

// TestFileLogCheckpointCountsCompacted: a checkpoint counts the records it
// drops from the live suffix, as SimLog does — the ones appended since the
// last checkpoint, and after a reopen the ones recovered behind it too.
func TestFileLogCheckpointCountsCompacted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.dlog")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendN := func(l *FileLog, n int) {
		t.Helper()
		for i := range n {
			if err := l.Append(rec(1, fmt.Sprintf("r%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendN(l, 7)
	if err := l.Checkpoint([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Compacted; got != 7 {
		t.Fatalf("Compacted = %d after 7 appends and a checkpoint, want 7", got)
	}
	appendN(l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	appendN(re, 2)
	if err := re.Checkpoint([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Compacted; got != 5+2 {
		t.Fatalf("Compacted = %d after a reopen over 5 records, 2 appends and a checkpoint, want 7", got)
	}
}

// TestFileLogCheckpointCountsOneSync: a checkpoint is one sync point on
// FileLog as on SimLog, so the two logs' Syncs mean the same thing for the
// same history of appends, syncs and checkpoints.
func TestFileLogCheckpointCountsOneSync(t *testing.T) {
	fl, err := OpenFile(filepath.Join(t.TempDir(), "s.dlog"))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	sl := NewSimLog()
	for i := range 3 {
		r := rec(1, fmt.Sprintf("r%d", i))
		if err := fl.Append(r); err != nil {
			t.Fatal(err)
		}
		sl.Append(r)
	}
	if err := fl.Sync(); err != nil {
		t.Fatal(err)
	}
	sl.SyncNow(0)
	if err := fl.Checkpoint([]byte("base")); err != nil {
		t.Fatal(err)
	}
	sl.Checkpoint(0, []byte("base"))
	if f, s := fl.Stats().Syncs, sl.Stats().Syncs; f != 2 || s != 2 {
		t.Fatalf("Syncs after a sync and a checkpoint: FileLog %d, SimLog %d, want 2 on both", f, s)
	}
}
