package e2ebench

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// smokeOptions are tiny laps: a sixteenth of each frozen tape, two
// repetitions of every phase, so all four workloads run end to end, oracle
// on, in a few seconds.
func smokeOptions(t *testing.T, trace bool) Options {
	return Options{Seed: 7, Seconds: 0.1, Laps: 2, Trace: trace, StateDir: t.TempDir(), tapeScale: 1.0 / 16}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads {
		r, err := Run(w, smokeOptions(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.Name, r.Correct, r.Attempted, r.Failed, r.Notes)
		}
		checkNames(t, r, EndToEnd)
		for _, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, m.Name, m.Value)
			}
		}
	}
}

// The traced run prints every per-layer metric, and nothing else; one serve
// workload and the engine workload cover both pipes.
func TestSmokeTraced(t *testing.T) {
	for _, w := range Workloads {
		name := w.Name
		if name != "serve_io" && name != "engine_udaf" {
			continue
		}
		o := smokeOptions(t, true)
		o.TraceOut = o.StateDir + "/trace.jsonl"
		r, err := Run(w, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct {
			t.Errorf("%s: failed=%d notes=%v", name, r.Failed, r.Notes)
		}
		checkNames(t, r, PerLayer)
		if fi, err := os.Stat(o.TraceOut); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no trace written: %v", name, err)
		}
	}
}

// checkNames fails unless the result's metrics are exactly defs, each once.
func checkNames(t *testing.T, r *Result, defs []MetricDef) {
	t.Helper()
	want := map[string]string{}
	for _, d := range defs {
		want[d.Name] = d.Unit
	}
	for _, m := range r.Metrics {
		if unit, ok := want[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s: printed %s [%s], which is not defined for this kind of run (or printed twice)", r.Workload, m.Name, m.Unit)
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("%s: defined metric %s was not printed", r.Workload, name)
	}
}

// BENCHMARK.json and the command must name the same workloads and metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != DefaultSeconds {
		t.Errorf("run_seconds = %d, DefaultSeconds = %d", doc.RunSeconds, DefaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workloads.go", i, doc.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got []metric, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, d)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: name %q is not [A-Za-z0-9_.-]+", kind, d.Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, EndToEnd)
	same("per_layer", doc.PerLayer, PerLayer)
}
