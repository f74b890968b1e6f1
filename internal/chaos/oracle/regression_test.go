package oracle

import (
	"testing"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos/workload"
)

// TestBindingReplayRegression pins the recovery binding-prefix replay as
// load-bearing. The historical recovery re-cut released work into fresh
// batches from the source log in TID order; on this seed the re-cut
// commits a conflicting pair in a different order than the responses the
// clients already hold, which the history checker rejects. With the
// binding replay (released responses re-commit serially in release order)
// the shipped tree passes the full adversarial verdict at this seed on
// both epoch schedules. mutants/replay-order.patch re-opens the re-cut and
// names this test as its kill command, so the seed keeps proving it
// catches it. (Seed 18 until reads left the epochs, which moved every
// datadep schedule; 11 until the batch's responses moved to its decide.)
func TestBindingReplayRegression(t *testing.T) {
	const seed = 6
	for _, disablePipe := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DisablePipelining = disablePipe
		if _, err := VerifyAdversarial(workload.DataDep, stateflow.BackendStateFlow, seed, cfg); err != nil {
			t.Errorf("pipe=%v: verdict failed: %v", !disablePipe, err)
		}
	}
}

// TestFallbackDriftRegression pins the fallback chain's drift rule
// (Worker.admitChained) as load-bearing. A route queues on the candidate its
// first execution observed; re-executed behind the lower TIDs that aborted
// it, it can read the other parity and call the other candidate — an entity
// nothing ordered it on. Without the rule that event runs anyway, beside
// whichever chain member holds the entity's queue, and one of the two
// updates is lost; the checker rejects the history on this seed
// (mutants/fallback-drift.patch, whose kill command is this test). With
// the rule the shipped tree passes the full adversarial verdict at this
// seed on both epoch schedules, and the rule demonstrably intervened
// (FallbackDriftDemotions > 0).
//
// (Seed 3 until reads left the epochs, 5 until the batch's responses moved
// to its decide, 3 until state-free continuations ran in place: a route's
// response now leaves from its candidate's owner, which installs the
// drifted bump at once, so only a narrower window loses an update, and 950
// is the smallest seed on which both legs still do.)
func TestFallbackDriftRegression(t *testing.T) {
	const seed = 950
	for _, disablePipe := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DisablePipelining = disablePipe
		run, err := VerifyAdversarial(workload.DataDep, stateflow.BackendStateFlow, seed, cfg)
		if err != nil {
			t.Errorf("pipe=%v: verdict failed: %v", !disablePipe, err)
		}
		if run.FallbackDriftDemotions == 0 {
			t.Errorf("pipe=%v: no member drifted, so this seed does not exercise the hole", !disablePipe)
		}
	}
}

// TestSequencerFailoverRegression pins the sequencer's crash recovery
// as load-bearing. On this seed the 2-shard deployment takes sequencer
// crashes inside held fence windows — including the targeted mid-fence
// crash VerifyAdversarial aims at the midpoint of the widest stretch in
// which one batch's footprint shards were all parked (seed 2 until the
// fence ack started carrying the batch's reads, which shortened every
// window; 1 until the batch's responses moved to its decide; 2 until
// state-free continuations ran in place). The rebooted sequencer
// must re-derive the in-flight batch from the durable per-shard fence
// markers and roll it forward exactly once: the full adversarial verdict
// (serializability, conservation, exactly-once accounting) rejects a
// double-applied or half-applied batch, and this test additionally
// requires that at least one batch was genuinely rolled forward (not
// merely abandoned pre-apply), so the roll-forward path itself stays
// exercised.
func TestSequencerFailoverRegression(t *testing.T) {
	const seed = 4
	cfg := DefaultConfig()
	cfg.Shards = 2
	run, err := VerifyAdversarial(workload.XShard, stateflow.BackendStateFlow, seed, cfg)
	if err != nil {
		t.Fatalf("seed %d shards=%d: %v", seed, cfg.Shards, err)
	}
	if run.Sequencer.Failovers == 0 {
		t.Fatal("no sequencer failover on the pinned seed; the regression seed went stale")
	}
	if !run.MidFenceAimed {
		t.Fatal("the targeted mid-fence crash did not run on the pinned seed; the regression seed went stale")
	}
	if run.Sequencer.RederivedBatches == 0 {
		t.Fatalf("sequencer failed over %d times but never rolled an in-flight batch forward; the mid-apply recovery path went unexercised",
			run.Sequencer.Failovers)
	}
	t.Logf("seed %d shards=%d: %d failovers, %d batches rolled forward, %d abandoned pre-apply",
		seed, cfg.Shards, run.Sequencer.Failovers, run.Sequencer.RederivedBatches, run.Sequencer.AbortedBatches)
}

// TestShardedExactlyOnceRegression pins the three plans on which the
// sharded topology broke exactly-once or wedged while the sequencer was a
// second, volatile releaser of global responses. On (hotkey, 1, 2 shards —
// seed 11 until the fallback chain changed every hotkey run's message
// count, then 40 until reads left the epochs) and (chain, 4, 4 — 8 until
// the batch's responses moved to its decide, then 6 until a batch closed as
// soon as its members finished) a
// sequencer crash lands after a batch's response went out and before its
// last unfence ack, and the roll-forward of that batch used to send the
// response again ("system sent 2 responses, allowed 1");
// on (datadep, 17, 2) a failover abandoned a fenced batch, the one unfence
// died with a shard coordinator's reboot, and the rebuilt park used to have
// nobody to surface itself to (55/60 requests lost). Since the fence ack
// carries the batch's reads, 17 abandons no batch; (datadep, 9, 2 — 3
// until reads left the epochs) keeps the shape the floor asks for — abandoned batches beside shard-coordinator
// reboots. Responses now leave through the home shard's journal only and a
// parked shard always knows its sequencer; each floor keeps the plan aimed
// at its mechanism.
func TestShardedExactlyOnceRegression(t *testing.T) {
	for _, tc := range []struct {
		profile workload.Profile
		seed    int64
		shards  int
		wedge   bool
	}{
		{workload.HotKey, 1, 2, false},
		{workload.DataDep, 9, 2, true},
		{workload.Chain, 4, 4, false},
	} {
		cfg := DefaultConfig()
		cfg.Shards = tc.shards
		run, err := VerifyAdversarial(tc.profile, stateflow.BackendStateFlow, tc.seed, cfg)
		if err != nil {
			t.Errorf("%s seed %d shards=%d: %v", tc.profile, tc.seed, tc.shards, err)
			continue
		}
		q := run.Sequencer
		switch {
		case q.Failovers == 0:
			t.Errorf("%s seed %d shards=%d: no sequencer failover; the regression seed went stale", tc.profile, tc.seed, tc.shards)
		case tc.wedge && (q.AbortedBatches == 0 || run.CoordRestarts == 0):
			t.Errorf("%s seed %d shards=%d: %d abandoned batches, %d shard-coordinator reboots; the plan no longer abandons a batch around a reboot",
				tc.profile, tc.seed, tc.shards, q.AbortedBatches, run.CoordRestarts)
		case !tc.wedge && q.RederivedBatches == 0:
			t.Errorf("%s seed %d shards=%d: %d failovers but no batch rolled forward; the plan no longer crashes the sequencer behind a release",
				tc.profile, tc.seed, tc.shards, q.Failovers)
		}
	}
}

// TestFallbackDriftDemotesOnDefaultPath asserts the drift rule fires across
// ordinary chaos runs on both epoch schedules, beside the one regression
// seed above: a regression in its trigger condition must not go unnoticed.
func TestFallbackDriftDemotesOnDefaultPath(t *testing.T) {
	demotions := 0
	for _, tc := range []struct {
		seed        int64
		disablePipe bool
	}{{13, false}, {19, false}, {10, true}, {28, true}, {58, true}} {
		cfg := DefaultConfig()
		cfg.DisablePipelining = tc.disablePipe
		run, err := VerifyAdversarial(workload.DataDep, stateflow.BackendStateFlow, tc.seed, cfg)
		if err != nil {
			t.Fatalf("seed %d pipe=%v: %v", tc.seed, !tc.disablePipe, err)
		}
		demotions += run.FallbackDriftDemotions
	}
	if demotions == 0 {
		t.Fatal("no fallback drift demotion across the pinned seeds; the rule (or the seeds) went stale")
	}
}
