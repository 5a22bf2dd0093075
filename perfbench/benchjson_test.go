package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics every run
// prints; the tables in main.go must say the same.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var declared, implemented []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for name := range workloads {
		implemented = append(implemented, name)
	}
	sort.Strings(declared)
	sort.Strings(implemented)
	if len(declared) != len(implemented) {
		t.Fatalf("workloads: BENCHMARK.json %v, code %v", declared, implemented)
	}
	for i := range declared {
		if declared[i] != implemented[i] {
			t.Errorf("workloads: BENCHMARK.json %v, code %v", declared, implemented)
		}
	}
}
