package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric lists this program
// prints and the ones BENCHMARK.json declares identical, in order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestJobPlanRoundsCarryTheSameMix pins the daemon workload's request
// stream: deterministic per seed, and every round holds each kind once
// with a pool seed and once with a fresh, never-repeated seed.
func TestJobPlanRoundsCarryTheSameMix(t *testing.T) {
	seen := make(map[uint64]bool)
	for round := 0; round < epochRounds; round++ {
		count := make(map[string]int)
		for j := round * roundLen; j < (round+1)*roundLen; j++ {
			req := jobPlan(7, j)
			if requestKey(req) != requestKey(jobPlan(7, j)) {
				t.Fatalf("job %d: plan not deterministic", j)
			}
			fresh := req.Seed >= freshSeeds
			count[fmt.Sprint(req.Experiments, fresh)]++
			if fresh {
				if seen[req.Seed] {
					t.Fatalf("job %d: fresh seed %d repeated", j, req.Seed)
				}
				seen[req.Seed] = true
			}
		}
		if len(count) != roundLen {
			t.Fatalf("round %d mix = %v, want each kind once pooled and once fresh", round, count)
		}
	}
}
