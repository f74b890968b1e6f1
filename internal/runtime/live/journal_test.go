package live

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
)

func openJournaled(t *testing.T, path string) *Runtime {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Open(prog, Config{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestJournalReplayAcrossRestart is the Live-runtime half of the
// response-replay protocol: a client retrying a journaled request id
// against a NEW process gets the recorded outcome back — and the request
// is not re-executed (the state-mutating bump leaves no trace in the
// fresh incarnation's stores).
func TestJournalReplayAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.dlog")

	rt1 := openJournaled(t, path)
	if _, err := rt1.Create("Counter", interp.StrV("c1")); err != nil {
		t.Fatal(err)
	}
	v, errStr, err := rt1.SubmitWithID("req-1", "Counter", "c1", "bump", interp.IntV(5)).Wait()
	if err != nil || errStr != "" || v.I != 5 {
		t.Fatalf("first bump: %v %q %v", v, errStr, err)
	}
	rt1.Close()
	if n := rt1.Metrics().Snapshot()["live.journal.errors"]; n != 0 {
		t.Fatalf("journal errors: %d", n)
	}

	// New process, same journal: the retry of req-1 is served from the
	// journal. No entity exists in this incarnation (live state is
	// in-memory), so an answered-from-journal result proves no
	// re-execution happened.
	rt2 := openJournaled(t, path)
	defer rt2.Close()
	v, errStr, err = rt2.SubmitWithID("req-1", "Counter", "c1", "bump", interp.IntV(5)).Wait()
	if err != nil || errStr != "" || v.I != 5 {
		t.Fatalf("replayed bump: %v %q %v", v, errStr, err)
	}
	if _, ok := rt2.EntityState("Counter", "c1"); ok {
		t.Fatal("replayed request re-executed: entity materialized in the new incarnation")
	}
	// A fresh id executes normally (and fails: no such entity yet).
	_, errStr, err = rt2.SubmitWithID("req-2", "Counter", "c1", "get").Wait()
	if err != nil || errStr == "" {
		t.Fatalf("fresh id on empty state: err=%v app=%q (want an application error)", err, errStr)
	}
}

// TestJournalInFlightAndSameIncarnationReplay: within one incarnation, a
// duplicate submit of an in-flight id shares the future, and a duplicate
// of a completed id replays without re-execution.
func TestJournalInFlightAndSameIncarnationReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.dlog")
	rt := openJournaled(t, path)
	defer rt.Close()
	if _, err := rt.Create("Counter", interp.StrV("c1")); err != nil {
		t.Fatal(err)
	}
	v, _, err := rt.SubmitWithID("dup", "Counter", "c1", "bump", interp.IntV(1)).Wait()
	if err != nil || v.I != 1 {
		t.Fatalf("bump: %v %v", v, err)
	}
	// Retry of the completed id: journaled outcome, no second bump.
	v, _, err = rt.SubmitWithID("dup", "Counter", "c1", "bump", interp.IntV(1)).Wait()
	if err != nil || v.I != 1 {
		t.Fatalf("replay: %v %v", v, err)
	}
	if st, ok := rt.EntityState("Counter", "c1"); !ok || st["n"].I != 1 {
		t.Fatalf("counter bumped twice: %v", st)
	}
}

// TestJournalConcurrentClients hammers the journal from many goroutines
// (the -race job runs this) and then replays every outcome in a second
// incarnation.
func TestJournalConcurrentClients(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.dlog")
	rt := openJournaled(t, path)
	if _, err := rt.Create("Counter", interp.StrV("c1")); err != nil {
		t.Fatal(err)
	}
	const clients, per = 8, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("c%d-%d", c, i)
				if _, _, err := rt.SubmitWithID(id, "Counter", "c1", "bump", interp.IntV(1)).Wait(); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if st, ok := rt.EntityState("Counter", "c1"); !ok || st["n"].I != clients*per {
		t.Fatalf("count: %v", st)
	}
	rt.Close()

	rt2 := openJournaled(t, path)
	defer rt2.Close()
	for c := 0; c < clients; c++ {
		for i := 0; i < per; i++ {
			id := fmt.Sprintf("c%d-%d", c, i)
			v, errStr, err := rt2.SubmitWithID(id, "Counter", "c1", "bump", interp.IntV(1)).Wait()
			if err != nil || errStr != "" || v.Kind != interp.KInt {
				t.Fatalf("replay %s: %v %q %v", id, v, errStr, err)
			}
		}
	}
	if _, ok := rt2.EntityState("Counter", "c1"); ok {
		t.Fatal("replays re-executed")
	}
}

// TestJournalMintedIDsDoNotCollideAcrossIncarnations: a new process's
// plain Submit must never be answered from a previous process's journal
// — minted ids carry an incarnation prefix and skip the replay map.
func TestJournalMintedIDsDoNotCollideAcrossIncarnations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.dlog")
	rt1 := openJournaled(t, path)
	if _, err := rt1.Create("Counter", interp.StrV("c1")); err != nil { // minted id, journaled
		t.Fatal(err)
	}
	rt1.Close()

	rt2 := openJournaled(t, path)
	defer rt2.Close()
	// The same sequence in the new incarnation must actually execute: if
	// the minted id collided with rt1's journaled one, Create would be
	// answered with the stale outcome and the entity would not exist.
	if _, err := rt2.Create("Counter", interp.StrV("c1")); err != nil {
		t.Fatal(err)
	}
	v, errStr, err := rt2.Submit("Counter", "c1", "bump", interp.IntV(3)).Wait()
	if err != nil || errStr != "" || v.I != 3 {
		t.Fatalf("fresh incarnation did not execute: %v %q %v", v, errStr, err)
	}
	if st, ok := rt2.EntityState("Counter", "c1"); !ok || st["n"].I != 3 {
		t.Fatalf("state after fresh execution: %v ok=%v", st, ok)
	}
}

// TestJournalRetentionBoundsAndReplaysWithinWindow pins the journal's
// retention contract. Pre-fix, the journal only ever grew: every outcome
// stayed appended forever, and Open never decoded a checkpoint record —
// so compacting at all would have silently dropped every journaled
// outcome on the next restart. Post-fix: compaction folds the replay
// entries still inside JournalRetention into one checkpoint record and
// prunes the rest, and a reopened runtime replays from the checkpoint
// plus the frames behind it — retries inside the window replay across
// restarts, retries outside it re-execute.
func TestJournalRetentionBoundsAndReplaysWithinWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.dlog")
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2, JournalPath: path,
		JournalCheckpointEvery: 8, JournalRetention: 50 * time.Millisecond}
	rt, err := Open(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Create("Counter", interp.StrV("c1")); err != nil { // append 1
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // appends 2..7
		id := fmt.Sprintf("old-%d", i)
		if _, _, err := rt.SubmitWithID(id, "Counter", "c1", "bump", interp.IntV(1)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond) // age the old outcomes past retention

	// Appends 8 and 9: the 8th crosses JournalCheckpointEvery and compacts,
	// pruning everything older than the window; the 9th lands as a frame
	// behind the fresh checkpoint.
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("new-%d", i)
		if _, _, err := rt.SubmitWithID(id, "Counter", "c1", "bump", interp.IntV(1)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.journal.Stats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints after 9 appends with every=8: %d, want 1", got)
	}
	if _, ok := rt.replay.Load("old-0"); ok {
		t.Fatal("outcome older than the retention window survived compaction")
	}
	if _, ok := rt.replay.Load("new-0"); !ok {
		t.Fatal("outcome inside the retention window pruned")
	}
	rt.Close()
	if n := rt.Metrics().Snapshot()["live.journal.errors"]; n != 0 {
		t.Fatalf("journal errors: %d", n)
	}

	// New process, same journal: replay must survive the compaction —
	// new-0 from the checkpoint record, new-1 from the frame behind it.
	// (This is the leg the pre-fix Open failed: it never read
	// Recovered().Checkpoint.) A pruned id re-executes — here against an
	// incarnation with no entity, so it fails instead of replaying.
	rt2, err := Open(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	for _, id := range []string{"new-0", "new-1"} {
		v, errStr, err := rt2.SubmitWithID(id, "Counter", "c1", "bump", interp.IntV(1)).Wait()
		if err != nil || errStr != "" || v.Kind != interp.KInt {
			t.Fatalf("replay %s across compaction+restart: %v %q %v", id, v, errStr, err)
		}
	}
	if _, errStr, err := rt2.SubmitWithID("old-0", "Counter", "c1", "bump", interp.IntV(1)).Wait(); err != nil || errStr == "" {
		t.Fatalf("pruned id should re-execute (and fail on empty state): err=%v app=%q", err, errStr)
	}
}

// TestJournalTornTailDiscarded corrupts the journal's tail byte (a crash
// mid-append) and requires the reopened runtime to discard it: the torn
// outcome is re-executed on retry rather than replayed from garbage.
func TestJournalTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.dlog")
	rt := openJournaled(t, path)
	if _, err := rt.Create("Counter", interp.StrV("c1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.SubmitWithID("keep", "Counter", "c1", "bump", interp.IntV(1)).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.SubmitWithID("torn", "Counter", "c1", "bump", interp.IntV(1)).Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	rt2 := openJournaled(t, path)
	defer rt2.Close()
	if _, ok := rt2.replay.Load("keep"); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := rt2.replay.Load("torn"); ok {
		t.Fatal("torn record replayed")
	}
}
