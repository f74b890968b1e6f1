package oracle

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow"
	"statefulentities.dev/stateflow/internal/chaos/workload"
)

// TestFlightDumpOnLinFailure pins the flight recorder's reason to
// exist: when a sweep fails, the error must carry the cluster's causal
// timeline, not just the reproducing seed. The failure is induced by
// re-opening the pre-fix TID-order recovery re-cut (the
// Reinject.ReplayOrder hook) on its regression seed, which the
// adversarial verdict rejects — and the rejection must arrive with a
// non-empty flight-recorder dump showing the crashes and reboots that
// led up to it.
func TestFlightDumpOnLinFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reinject.ReplayOrder = true
	_, err := VerifyAdversarial(workload.DataDep, stateflow.BackendStateFlow, 6, cfg)
	if err == nil {
		t.Fatal("pre-fix recovery escaped the checker; the regression seed has gone stale")
	}
	msg := err.Error()
	if !strings.Contains(msg, "flight recorder timeline (last ") {
		t.Fatalf("failure carries no flight-recorder dump:\n%s", msg)
	}
	// The timeline must actually narrate the run: the induced failure
	// needs a coordinator reboot, so crash and reboot events must be in
	// the ring.
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
