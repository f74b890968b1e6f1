package oracle

import (
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/chaos"
)

// TestDeliveryAccounting pins the exactly-once check at the client edge on
// hand-built ledgers: what the wire injected (response duplicates and drops,
// request duplicates) and what the client solicited (retries) explain every
// delivery but the system's own, which must be the original plus at most one
// replay per solicitation.
func TestDeliveryAccounting(t *testing.T) {
	for _, tc := range []struct {
		name       string
		deliveries map[string]int
		stats      chaos.Stats
		retries    map[string]int
		want       string // the violation's prefix; "" accepts
	}{
		{name: "one delivery per request", deliveries: map[string]int{"a": 1, "b": 1}},
		{name: "unsolicited duplicate",
			deliveries: map[string]int{"a": 2}, want: "DUPLICATE a: system sent 2 responses, allowed 1"},
		{name: "injected duplicate explains the second delivery",
			deliveries: map[string]int{"a": 2}, stats: chaos.Stats{DupResponses: map[string]int{"a": 1}}},
		{name: "injected duplicate with no system send",
			deliveries: map[string]int{"a": 1}, stats: chaos.Stats{DupResponses: map[string]int{"a": 1}},
			want: "UNDERDELIVERED a: 1 deliveries, 1 dups, 0 drops"},
		{name: "one replay per client retry",
			deliveries: map[string]int{"a": 2}, retries: map[string]int{"a": 1}},
		{name: "one replay per request duplicate",
			deliveries: map[string]int{"a": 2}, stats: chaos.Stats{DupRequests: map[string]int{"a": 1}}},
		{name: "one replay per solicitation, both kinds",
			deliveries: map[string]int{"a": 3}, retries: map[string]int{"a": 1},
			stats: chaos.Stats{DupRequests: map[string]int{"a": 1}}},
		{name: "a replay beyond the solicitations",
			deliveries: map[string]int{"a": 3}, retries: map[string]int{"a": 1},
			want: "DUPLICATE a: system sent 3 responses, allowed 2"},
		{name: "dropped response healed by a retry",
			deliveries: map[string]int{"a": 1}, retries: map[string]int{"a": 1},
			stats: chaos.Stats{DroppedResponses: map[string]int{"a": 1}}},
		{name: "dropped response, replayed without a solicitation",
			deliveries: map[string]int{"a": 1},
			stats:      chaos.Stats{DroppedResponses: map[string]int{"a": 1}},
			want:       "DUPLICATE a: system sent 2 responses, allowed 1"},
	} {
		bad := deliveryViolations(tc.deliveries, tc.stats, tc.retries)
		switch {
		case tc.want == "" && len(bad) != 0:
			t.Errorf("%s: rejected: %v", tc.name, bad)
		case tc.want != "" && (len(bad) != 1 || !strings.HasPrefix(bad[0], tc.want)):
			t.Errorf("%s: got %q, want one violation starting %q", tc.name, bad, tc.want)
		}
	}
}

// TestDeliveryAccountingReportsInIDOrder: a failure lists every violating id
// once, sorted, so two runs of a failing seed print the same report.
func TestDeliveryAccountingReportsInIDOrder(t *testing.T) {
	bad := deliveryViolations(map[string]int{"c": 2, "a": 2, "b": 1},
		chaos.Stats{DupResponses: map[string]int{"b": 1}}, nil)
	var ids []string
	for _, line := range bad {
		ids = append(ids, strings.Fields(line)[1])
	}
	if got := strings.Join(ids, " "); got != "a: b: c:" {
		t.Fatalf("violations reported as %q, want a, b, c in order:\n%s", got, strings.Join(bad, "\n"))
	}
}
