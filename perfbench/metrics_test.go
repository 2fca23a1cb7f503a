package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists
// and workloads in step with what the benchmark reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", n)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	for _, c := range []struct {
		list string
		got  []struct{ Name, Unit, Better string }
		want []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var got, want []metricSpec
		for _, m := range c.got {
			got = append(got, metricSpec{m.Name, m.Unit, m.Better})
		}
		var rows []map[string]string
		for _, m := range c.want {
			want = append(want, m)
			rows = append(rows, map[string]string{"name": m.name, "unit": m.unit, "better": m.better})
		}
		if !reflect.DeepEqual(got, want) {
			js, _ := json.Marshal(rows)
			t.Errorf("BENCHMARK.json %s differs from the catalog; want %s", c.list, js)
		}
	}
}
