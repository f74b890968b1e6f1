package stateflow_test

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/dlog"
	sfsys "statefulentities.dev/stateflow/internal/systems/stateflow"
)

// metricsRun deploys exampleSrc, runs a short seeded burst of transfers and
// fast reads on it, and returns the simulation.
func metricsRun(cfg stateflow.SimConfig) *stateflow.Simulation {
	cfg.Seed, cfg.SnapshotEvery = 1, 2
	simu := stateflow.NewSimulation(stateflow.MustCompile(exampleSrc), cfg)
	c := simu.Client()
	const n = 8
	name := func(i int) string { return fmt.Sprintf("a%d", i) }
	for i := range n {
		_ = c.Admin().Preload("Account", stateflow.Str(name(i)), stateflow.Int(100))
	}
	for i := range 32 {
		c.Entity("Account", name(i%n)).Submit("transfer", stateflow.Int(5), stateflow.Ref("Account", name((3*i+1)%n)))
		c.Entity("Account", name((i+5)%n)).Submit("read")
	}
	simu.Run(2 * time.Second)
	return simu
}

// openTornLive runs two journaled calls on a Live runtime, tears the last
// record of its journal as a crash mid-append would, and reopens the
// runtime on it.
func openTornLive(t *testing.T) *stateflow.Live {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.dlog")
	prog := stateflow.MustCompile(journalCounterSrc)
	cfg := stateflow.LiveConfig{Workers: 2, JournalPath: path}
	c, err := stateflow.OpenLiveClient(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("Counter", stateflow.Str("c1")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"keep", "torn"} {
		if _, err := c.Entity("Counter", "c1").With(stateflow.WithRequestID(id)).Call("bump", stateflow.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	rt, err := stateflow.OpenLive(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// fieldMetrics spells out what publishing a stats struct must produce: one
// name per signed-integer field, prefix + the field's name in snake case,
// valued at the field.
func fieldMetrics(prefix string, stats any) map[string]int64 {
	v := reflect.ValueOf(stats)
	typ := v.Type()
	out := map[string]int64{}
	for i := range typ.NumField() {
		f := typ.Field(i)
		if k := f.Type.Kind(); k < reflect.Int || k > reflect.Int64 {
			continue
		}
		var name strings.Builder
		for j, r := range f.Name {
			if unicode.IsUpper(r) && j > 0 {
				name.WriteByte('_')
			}
			name.WriteRune(unicode.ToLower(r))
		}
		out[prefix+name.String()] = v.Field(i).Int()
	}
	return out
}

// TestMetricsRegistrationIsTotal: every counter of every stats struct is
// published under its one name, after a short seeded run on a classic and
// a 2-shard deployment, with the field's value for the coordinator's, the
// log's and the sequencer's. The workers' values, sums over each shard's
// workers, are checked field by field in their own package, which reads
// the workers (TestWorkerMetricsAreTheWorkersSums). A field added
// to CoordinatorStats, WorkerStats, WorkerCPU, SequencerStats or dlog.Stats
// is covered without touching a name table. The Live case reads the
// journal's torn tail through the registry.
func TestMetricsRegistrationIsTotal(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			simu := metricsRun(stateflow.SimConfig{Backend: stateflow.BackendStateFlow, Shards: shards})
			want, named := map[string]int64{}, map[string]int64{}
			for _, sys := range simu.Sharded().Shards() {
				ns := sys.MetricsNamespace()
				maps.Copy(want, fieldMetrics(ns+"coordinator.", sys.Coordinator().CoordinatorStats))
				maps.Copy(want, fieldMetrics(ns+"dlog.", sys.Dlog.Stats()))
				maps.Copy(named, fieldMetrics(ns+"worker.", sfsys.WorkerStats{}))
				maps.Copy(named, fieldMetrics(ns+"worker.cpu.", sfsys.WorkerCPU{}))
			}
			if seq := simu.Sharded().Sequencer(); seq != nil {
				maps.Copy(want, fieldMetrics("stateflow.sequencer.", seq.Stats()))
			}
			got := simu.Metrics().Snapshot()
			for _, name := range slices.Sorted(maps.Keys(want)) {
				if v, ok := got[name]; !ok {
					t.Errorf("%s is not published", name)
				} else if v != want[name] {
					t.Errorf("%s = %d, its field reads %d", name, v, want[name])
				}
			}
			for _, name := range slices.Sorted(maps.Keys(named)) {
				if _, ok := got[name]; !ok {
					t.Errorf("%s is not published", name)
				}
			}
			ns := simu.Sharded().Shards()[0].MetricsNamespace()
			for _, name := range []string{"coordinator.commits", "worker.applied", "worker.cpu.function_execution"} {
				if got[ns+name] == 0 {
					t.Errorf("%s%s is 0: the run is too short to check any value", ns, name)
				}
			}
		})
	}
	t.Run("live", func(t *testing.T) {
		got := openTornLive(t).Metrics().Snapshot()
		for name := range fieldMetrics("live.journal.", dlog.Stats{}) {
			if _, ok := got[name]; !ok {
				t.Errorf("%s is not published", name)
			}
		}
		if v := got["live.journal.torn_tails"]; v != 1 {
			t.Errorf("live.journal.torn_tails = %d after reopening a torn journal, want 1", v)
		}
	})
}

// The names a deployment publishes, spelled out so that no rename passes
// silently. stateflowNames are per StateFlow namespace ("stateflow." on a
// classic deployment, "stateflow.sf0." … on a sharded one).
var (
	stateflowNames = []string{
		"coordinator.aborts", "coordinator.binding_epochs", "coordinator.binding_replays",
		"coordinator.commits", "coordinator.corrupt_log_records", "coordinator.epochs_closed",
		"coordinator.failures", "coordinator.fallback_chains", "coordinator.fallback_commits",
		"coordinator.fallback_drift_demotions", "coordinator.fallback_rounds", "coordinator.fallback_spills",
		"coordinator.fast_reads", "coordinator.global_applies", "coordinator.global_fences",
		"coordinator.late_duplicates", "coordinator.mid_pipeline_restarts", "coordinator.recover_retries",
		"coordinator.recoveries", "coordinator.replays", "coordinator.restarts",
		"dlog.appended_bytes", "dlog.appends", "dlog.checkpoints", "dlog.compacted",
		"dlog.lost_records", "dlog.syncs", "dlog.torn_tails",
		"worker.corrupt_snapshot_images",
	}
	sequencerNames = []string{
		"stateflow.sequencer.aborted_batches", "stateflow.sequencer.failovers",
		"stateflow.sequencer.fence_waits", "stateflow.sequencer.full_fences",
		"stateflow.sequencer.global_batches", "stateflow.sequencer.global_txns",
		"stateflow.sequencer.known_retries", "stateflow.sequencer.rederived_batches",
		"stateflow.sequencer.scoped_fences", "stateflow.sequencer.single_shard",
	}
	statefunNames = []string{
		"statefun.broker.late_duplicates", "statefun.broker.produced",
		"statefun.fn.invocations", "statefun.worker.races",
	}
	liveNames = []string{
		"live.journal.appended_bytes", "live.journal.appends", "live.journal.checkpoints",
		"live.journal.errors", "live.journal.replays", "live.journal.syncs",
		"live.processed", "live.submits", "live.workers",
	}
	// Published since the registry names stats fields by one rule.
	newStateflowNames = []string{
		"worker.applied",
		"worker.cpu.event_deserialization", "worker.cpu.function_execution",
		"worker.cpu.object_construction", "worker.cpu.snapshot_persistence",
		"worker.cpu.splitting_instrumentation", "worker.cpu.state_serialization",
		"worker.cpu.txn_commit", "worker.cpu.txn_validation",
	}
	newLiveNames = []string{"live.journal.compacted", "live.journal.lost_records", "live.journal.torn_tails"}
)

// TestMetricNamesAreStable pins the exact set of names each deployment
// publishes: the names published before stats structs were registered by
// field, plus the ones that registration added. A metric that disappears,
// is renamed or appears unlisted fails here.
func TestMetricNamesAreStable(t *testing.T) {
	under := func(ns string, names ...[]string) (out []string) {
		for _, list := range names {
			for _, n := range list {
				out = append(out, ns+n)
			}
		}
		return out
	}
	sharded := append(under("stateflow.sf0.", stateflowNames, newStateflowNames), sequencerNames...)
	sharded = append(sharded, under("stateflow.sf1.", stateflowNames, newStateflowNames)...)
	for _, tc := range []struct {
		name string
		snap func(*testing.T) map[string]int64
		want []string
	}{
		{"classic", func(*testing.T) map[string]int64 {
			return metricsRun(stateflow.SimConfig{Backend: stateflow.BackendStateFlow}).Metrics().Snapshot()
		}, under("stateflow.", stateflowNames, newStateflowNames)},
		{"2-shard", func(*testing.T) map[string]int64 {
			return metricsRun(stateflow.SimConfig{Backend: stateflow.BackendStateFlow, Shards: 2}).Metrics().Snapshot()
		}, sharded},
		{"statefun", func(*testing.T) map[string]int64 {
			return metricsRun(stateflow.SimConfig{Backend: stateflow.BackendStateFun}).Metrics().Snapshot()
		}, statefunNames},
		{"live", func(t *testing.T) map[string]int64 { return openTornLive(t).Metrics().Snapshot() },
			append(slices.Clone(liveNames), newLiveNames...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.snap(t)
			for _, name := range tc.want {
				if _, ok := got[name]; !ok {
					t.Errorf("%s is no longer published", name)
				}
			}
			for _, name := range slices.Sorted(maps.Keys(got)) {
				if !slices.Contains(tc.want, name) {
					t.Errorf("%s is published but not listed", name)
				}
			}
		})
	}
}
