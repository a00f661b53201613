package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"statefulcc/internal/cas"
	"statefulcc/internal/obs"
	"statefulcc/internal/vfs"
)

// The wrappers must offer the builder everything the wrapped values do:
// buildsys type-asserts cas.Leaser and SetMetrics on its store, and
// silently loses coalescing or the wire counters without them.
var (
	_ vfs.FS                                 = traceFS{}
	_ cas.Store                              = traceStore{}
	_ cas.Leaser                             = traceStore{}
	_ interface{ SetMetrics(*obs.Registry) } = traceStore{}
)

// TestTracingIsTransparent runs each workload briefly at one seed,
// untraced and traced: both must link the same programs and count the
// same deterministic work, so the traced run measures the same program.
func TestTracingIsTransparent(t *testing.T) {
	p := params{maxSteps: 6, replay: 4, coldEvery: 3, cloneEdits: 3, epochCommits: 3}
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			var runs [2]*bench
			for i, traced := range []bool{false, true} {
				bn, err := execute(wl, p, 7, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if res := bn.result(); !res.Correct {
					t.Fatalf("traced=%v: run not correct: %v %v", traced, bn.failures, bn.engagement)
				}
				runs[i] = bn
			}
			plain, traced := runs[0], runs[1]
			if plain.programSum != traced.programSum {
				t.Error("traced run linked different programs")
			}
			if !reflect.DeepEqual(plain.counters, traced.counters) {
				t.Errorf("deterministic counters differ:\nuntraced %v\ntraced   %v", plain.counters, traced.counters)
			}
			if len(traced.layers) == 0 {
				t.Fatal("traced run recorded no build")
			}
			for _, l := range traced.layers {
				if l["buildsys.unattributed_ms"] < -0.01 {
					t.Errorf("named layers cover more than the build's wall time: %v", l)
				}
			}
		})
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	for _, w := range file.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(file.Workloads), len(workloads))
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{file.EndToEnd, endToEnd}, {file.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
