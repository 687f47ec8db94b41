package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// The metric names, units and bounds the benchmark prints must be the
// ones BENCHMARK.json declares, and every workload it declares must
// exist.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code:\n file %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer()) {
		want, _ := json.Marshal(perLayer())
		t.Errorf("per_layer differs from the code; the code's list is\n%s", want)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if names[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		names[d.Name] = true
	}
}
