package chaos_test

import (
	"fmt"
	"testing"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos/oracle"
	"statefulentities.dev/stateflow/internal/chaos/workload"
)

// stateflowCommits enumerates the StateFlow commit-strategy matrix the
// adversarial sweep covers: both commit paths (deterministic fallback on
// and off) crossed with both epoch schedules (pipelined and serial).
var stateflowCommits = []struct {
	name                         string
	disableFallback, disablePipe bool
}{
	{"fb+pipe", false, false},
	{"fb+serial", false, true},
	{"nofb+pipe", true, false},
	{"nofb+serial", true, true},
}

// TestAdversarialLinSweep is the order-sensitive acceptance gate: for
// every adversarial profile it sweeps seeds across the full StateFlow
// commit matrix plus the StateFun baseline, each seed deriving the same
// chaos plan as the byte-equality sweep, and requires the observed
// history to be serializable (lin.Check, serial mode on StateFlow via
// the coordinator's commit tap) and value-conserving. VerifyAdversarial
// additionally requires every StateFlow chaos run to have survived at
// least one coordinator reboot, so the sweep cannot silently stop
// exercising the restart path. Sharded (CHAOS_SHARDS > 1), every leg must
// also hold at least one seed whose targeted mid-fence sequencer crash
// ran; seeds whose plan leaves nothing to aim at are logged — and the sweep
// as a whole must have dropped a retry under a fence (knownRetriesFloor).
// The fallback chain stays under the oracle with both kinds of footprint:
// with the fallback on, a hotkey, chain or datadep leg must have chained at
// least one epoch, and — datadep's route queues on what its first execution
// observed — a full unsharded datadep leg (20 seeds or more; sharded, route
// runs at the sequencer) must have sent a drifted member to the next batch,
// beside the pinned seeds of oracle.TestFallbackDriftDemotesOnDefaultPath.
// Every profile issues gets, and every StateFlow leg must have answered some
// on the fast-read path, so serial mode keeps judging reads served outside
// the epochs. A failure prints the profile, backend, seed and full plan
// verbatim.
func TestAdversarialLinSweep(t *testing.T) {
	base := oracle.DefaultConfig()
	base.Shards = sweepShards()
	base.Traced = sweepTraced()
	knownRetries := knownRetriesFloor(t, base.Shards)
	for _, p := range workload.Profiles {
		p := p
		for _, combo := range stateflowCommits {
			combo := combo
			t.Run(fmt.Sprintf("%s/stateflow/%s", p, combo.name), func(t *testing.T) {
				t.Parallel()
				cfg := base
				cfg.DisableFallback = combo.disableFallback
				cfg.DisablePipelining = combo.disablePipe
				restarts, demotions, chains, fastReads := 0, 0, 0, 0
				var unaimable []int64
				for seed := int64(1); seed <= sweepSeeds(); seed++ {
					run, err := oracle.VerifyAdversarial(p, stateflow.BackendStateFlow, seed, cfg)
					if err != nil {
						t.Fatal(err)
					}
					restarts += run.CoordRestarts
					demotions += run.FallbackDriftDemotions
					chains += run.FallbackChains
					fastReads += run.FastReads
					knownRetries.Add(int64(run.Sequencer.KnownRetries))
					if !run.MidFenceAimed {
						unaimable = append(unaimable, seed)
					}
				}
				t.Logf("%d coordinator reboots survived, %d chained epochs, %d fallback drift demotions, %d fast reads", restarts, chains, demotions, fastReads)
				if fastReads == 0 {
					t.Fatalf("no get of this leg took the fast-read path (%d seeds)", sweepSeeds())
				}
				if p != workload.XShard && !combo.disableFallback && chains == 0 {
					t.Fatalf("no epoch of this leg chained its conflict aborts (%d seeds); the fallback schedule went unexercised", sweepSeeds())
				}
				if p == workload.DataDep && !combo.disableFallback && cfg.Shards <= 1 && sweepSeeds() >= 20 && demotions == 0 {
					t.Fatalf("no chain of this leg let go of a drifted member (%d seeds); the drift rule went unexercised", sweepSeeds())
				}
				if cfg.Shards > 1 {
					// The mid-fence floor is per leg, not per seed: a seeded
					// plan that keeps the sequencer down until the horizon
					// leaves no window to aim at, but a whole leg that never
					// crashed the sequencer inside a held fence stopped
					// exercising the roll-forward/abandon decision.
					aimed := int(sweepSeeds()) - len(unaimable)
					t.Logf("mid-fence sequencer crash: %d seeds aimed, %d un-aimable %v", aimed, len(unaimable), unaimable)
					if aimed == 0 {
						t.Fatalf("no seed of this leg aimed a sequencer crash into a fence window (shards=%d, %d seeds); the mid-fence recovery path went unexercised",
							cfg.Shards, sweepSeeds())
					}
				}
			})
		}
		t.Run(fmt.Sprintf("%s/statefun", p), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= sweepSeeds(); seed++ {
				if _, err := oracle.VerifyAdversarial(p, stateflow.BackendStateFun, seed, base); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestShardedAdversarialXShard is the sharded order-sensitive gate, run
// regardless of the CHAOS_SHARDS matrix: the cross-shard transfer
// profile sweeps a handful of seeds on 2- and 4-shard deployments, and
// every chaos run must produce a serializable, conserving history while
// surviving at least one single-shard coordinator crash, routing real
// traffic through the global sequencer, and living through sequencer
// failovers — including one crash aimed at the midpoint of an observed
// fence window, which VerifyAdversarial appends as a third run per seed
// and requires to have re-derived or abandoned an in-flight batch
// (exactly-once delivery accounting runs on that history too, pinning
// no-double-execution across the failover). Failures reproduce from two
// integers:
//
//	stateflow-run -lin xshard -seed N -shards 2
func TestShardedAdversarialXShard(t *testing.T) {
	seeds := int64(3)
	if s := sweepSeeds(); s < seeds {
		seeds = s
	}
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			cfg := oracle.DefaultConfig()
			cfg.Shards = shards
			restarts, globals, failovers, rederived := 0, 0, 0, 0
			for seed := int64(1); seed <= seeds; seed++ {
				run, err := oracle.VerifyAdversarial(workload.XShard, stateflow.BackendStateFlow, seed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !run.MidFenceAimed {
					t.Fatalf("seed %d shards=%d: no observed fence window opens before the plan horizon; this gate requires the targeted mid-fence crash on every seed", seed, shards)
				}
				restarts += run.CoordRestarts
				globals += run.Sequencer.GlobalTxns
				failovers += run.Sequencer.Failovers
				rederived += run.Sequencer.RederivedBatches + run.Sequencer.AbortedBatches
			}
			t.Logf("%d shard-coordinator reboots survived, %d global transactions sequenced, %d sequencer failovers (%d batches re-derived or abandoned)",
				restarts, globals, failovers, rederived)
		})
	}
}
