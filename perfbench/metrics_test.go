package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// Every metric the benchmark prints is declared in BENCHMARK.json with
// the same unit and direction, and every declared one is printed.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		trace bool
		want  []bound
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		rec := &record{Workload: "measure_hot", Trace: c.trace, Attempted: 1,
			EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		var out bytes.Buffer
		if err := report(&out, rec, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json declares %d", c.trace, len(res.Metrics), len(c.want))
		}
		defs := endToEnd
		if c.trace {
			defs = perLayer
		}
		for _, b := range c.want {
			m, ok := res.Metrics[b.Name]
			var d metricDef
			for _, def := range defs {
				if def.name == b.Name {
					d = def
				}
			}
			if !ok || m.Unit != b.Unit || d.better != b.Better {
				t.Errorf("trace=%v: %s printed as %+v (declared %s, %s)", c.trace, b.Name, m, b.Unit, b.Better)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
