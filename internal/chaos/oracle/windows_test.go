package oracle

import (
	"slices"
	"testing"
	"time"

	"statefulentities.dev/stateflow"
)

// TestFenceWindowsEndAtTheUnfenceSend pins where a targeted mid-fence crash
// may land: a batch's windows end when the sequencer sends its unfences,
// not when a shard resumes. A crash between the two finds the batch
// finished, so the stretch must not reach past the send.
func TestFenceWindowsEndAtTheUnfenceSend(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ev := func(at int, node, kind, detail string) stateflow.FlightEvent {
		return stateflow.FlightEvent{At: ms(at), Node: node, Kind: kind, Detail: detail}
	}
	events := []stateflow.FlightEvent{
		ev(10, "sf0-coord", "fence", "parked for global batch 3"),
		ev(12, "sf1-coord", "fence", "parked for global batch 3"),
		ev(14, "sf2-coord", "fence", "parked for global batch 4"),
		ev(20, "sf-seq", "global.unfence", "unfencing global batch 3"),
		ev(22, "sf0-coord", "unfence", "resumed after global batch 3"),
		ev(23, "sf1-coord", "unfence", "resumed after global batch 3"),
		// Batch 4: its second shard crashes while parked, which ends that
		// window; its other window is still open when batch 3's unfences
		// go out, and ends at batch 4's own.
		ev(24, "sf0-coord", "fence", "parked for global batch 4"),
		ev(27, "sf0-coord", "crash", "crashed"),
		ev(30, "sf-seq", "global.unfence", "unfencing global batch 4"),
		ev(31, "sf2-coord", "unfence", "resumed after global batch 4"),
	}
	got := fenceWindows(events)
	want := []FenceWindow{
		{Node: "sf0-coord", Seq: 3, From: ms(10), To: ms(20)},
		{Node: "sf1-coord", Seq: 3, From: ms(12), To: ms(20)},
		{Node: "sf2-coord", Seq: 4, From: ms(14), To: ms(30)},
		{Node: "sf0-coord", Seq: 4, From: ms(24), To: ms(27)},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fenceWindows:\n got %v\nwant %v", got, want)
	}
	stretches := batchStretches(got)
	wantStretches := []FenceWindow{{Seq: 3, From: ms(12), To: ms(20)}, {Seq: 4, From: ms(24), To: ms(27)}}
	if !slices.Equal(stretches, wantStretches) {
		t.Fatalf("batchStretches:\n got %v\nwant %v", stretches, wantStretches)
	}
}
