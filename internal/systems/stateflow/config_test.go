package stateflow

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// configRoles names why each Config field exists. A field is here because
// an operator would set it, because a test or an experiment compares
// against the schedule it selects, because a checker reads what it taps,
// because it is where observations go, or because it prices the simulated
// work — never because one test wanted a knob.
var configRoles = map[string]string{
	"Workers":           "operator setting",
	"EpochInterval":     "operator setting",
	"SnapshotEvery":     "operator setting",
	"MaxRetries":        "operator setting",
	"StallTimeout":      "operator setting",
	"MaxBatch":          "operator setting",
	"DedupRetention":    "operator setting",
	"SnapshotRetain":    "operator setting",
	"Shards":            "operator setting",
	"DisableFallback":   "compared schedule",
	"DisablePipelining": "compared schedule",
	"FullFences":        "compared schedule",
	"TraceCommits":      "checker tap",
	"Tracer":            "observability sink",
	"Flight":            "observability sink",
	"Costs":             "cost model",
}

// TestConfigFieldsHaveAnOwner pins the settings surface: adding a field to
// Config, or removing one, fails here until configRoles and the README's
// table of Config fields name it, and a compared schedule also needs its
// row in the README's schedules table, which says what compares against it.
// A new knob thus shows up in review with its reason.
func TestConfigFieldsHaveAnOwner(t *testing.T) {
	fields := map[string]bool{}
	typ := reflect.TypeFor[Config]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		fields[f.Name] = true
		if _, ok := configRoles[f.Name]; !ok {
			t.Errorf("Config.%s has no role: add it to configRoles and to the README's table of Config fields", f.Name)
		}
	}
	for name := range configRoles {
		if !fields[name] {
			t.Errorf("configRoles names %s, which Config no longer has", name)
		}
	}

	readme, err := os.ReadFile("../../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "## Schedules a test or an experiment can pin\n"
	_, section, ok := strings.Cut(string(readme), heading)
	if !ok {
		t.Fatalf("README has no %q section", strings.TrimSpace(heading))
	}
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	// "| `Field` | role |" rows are the table of Config fields; any other
	// row that starts with a field is the schedules table's.
	row := regexp.MustCompile("(?m)^\\| `(\\w+)` \\| ([^|]*?) \\|(.*)$")
	documented, scheduled := map[string]string{}, map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		if m[3] == "" {
			documented[m[1]] = m[2]
		} else {
			scheduled[m[1]] = true
		}
	}
	if !reflect.DeepEqual(documented, configRoles) {
		t.Errorf("the README's table of Config fields reads %v, want %v", documented, configRoles)
	}
	for name, role := range configRoles {
		if (role == "compared schedule") != scheduled[name] {
			t.Errorf("Config.%s (%s): in the README's schedules table = %v", name, role, scheduled[name])
		}
	}
}
