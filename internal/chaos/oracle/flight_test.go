package oracle

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos/workload"
	"statefulentities.dev/stateflow/internal/lin"
)

// TestFlightDumpOnLinFailure pins the flight recorder's reason to
// exist: when a sweep fails, the error must carry the cluster's causal
// timeline, not just the reproducing seed. The failure is induced on the
// history, not the runtime: seed 6's chaos run (which reboots a
// coordinator) is checked with one committed write's observed version
// moved, which the history checker rejects, and the rejection is reported
// the way VerifyAdversarial reports one — with a non-empty flight-recorder
// dump showing the crashes and reboots that led up to it.
func TestFlightDumpOnLinFailure(t *testing.T) {
	const seed = 6
	cfg := DefaultConfig()
	spec := workload.FromSeed(workload.DataDep, seed)
	v := newVerdict("adversarial profile=datadep seed=6", seed, cfg)
	h, run, err := RunAdversarial(spec, stateflow.BackendStateFlow, seed, &v.plan, cfg)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if err := lin.Check(h, spec.Conservation()); err != nil {
		t.Fatalf("the untouched history is rejected: %v", err)
	}
	edited := false
edit:
	for i := range h.Outcomes {
		for j := range h.Outcomes[i].Obs {
			if o := &h.Outcomes[i].Obs[j]; o.Wrote {
				o.Pre.Version += 1000
				edited = true
				break edit
			}
		}
	}
	if !edited {
		t.Fatal("no committed write in the history to edit")
	}
	cerr := lin.Check(h, spec.Conservation())
	if cerr == nil {
		t.Fatal("the checker accepted a write of a version nobody installed")
	}
	_, err = v.failRun(run, "history rejected: %v", cerr)
	msg := err.Error()
	if !strings.Contains(msg, "flight recorder timeline (last ") {
		t.Fatalf("failure carries no flight-recorder dump:\n%s", msg)
	}
	// The timeline must actually narrate the run: the chaos plan reboots
	// a coordinator, so crash and reboot events must be in the ring.
	for _, kind := range []string{"crash", "reboot"} {
		if !strings.Contains(msg, kind) {
			t.Errorf("flight dump is missing %q events:\n%s", kind, msg)
		}
	}
}

// TestFlightDumpAttachedToPassingRun pins that every chaos run carries
// its timeline (Run.Flight) even when it passes — the sweep only prints
// it on failure, but the recorder must have been recording all along.
func TestFlightDumpAttachedToPassingRun(t *testing.T) {
	run, err := VerifyAdversarial(workload.DataDep, stateflow.BackendStateFlow, 33, DefaultConfig())
	if err != nil {
		t.Fatalf("post-fix verdict failed: %v", err)
	}
	if !strings.HasPrefix(run.Flight, "flight recorder timeline (last ") {
		t.Fatalf("passing run carries no flight dump:\n%q", run.Flight)
	}
}
