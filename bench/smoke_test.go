package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// spec is BENCHMARK.json at the root of the repository.
type spec struct {
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

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json is the contract later changes are judged by; the
// tables in metrics.go and workloads.go are what the program reports.
// They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	s := readSpec(t)
	if !reflect.DeepEqual(s.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v\n%+v", s.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n%+v\n%+v", s.PerLayer, perLayer)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in workloads.go", i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// The smoke pass runs every workload end to end at a few tenths of a
// second per phase on cut-down inputs: tiers boot, every reply passes
// the oracle, the traced phase and the replay run, and every metric
// BENCHMARK.json names is printed exactly once.
func TestSmokeEveryWorkloadPrintsEveryMetricOnce(t *testing.T) {
	s := readSpec(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			if raceEnabled && wl.name == "voice_dnn_i8" {
				t.Skip("a DNN decode takes seconds under the race detector")
			}
			res, err := runWorkload(runConfig{workload: wl.name, seed: 1, seconds: 0.6, trace: true, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%t attempted=%d failed=%d first mismatch: %q first failure: %q", res.Correct, res.Attempted, res.Failed, res.Mismatch, res.Failure)
			}
			for _, p := range res.Phases {
				if p.Attempted == 0 {
					t.Errorf("phase %s sent nothing", p.Name)
				}
			}
			var out bytes.Buffer
			report(&out, res)
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 3 {
					printed[f[0]+" "+f[2]]++ // name and unit
				}
			}
			for _, d := range append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...) {
				if n := printed[d.Name+" "+d.Unit]; n != 1 {
					t.Errorf("metric %s [%s] is printed %d times", d.Name, d.Unit, n)
				}
			}
			for _, defs := range [][]metricDef{s.EndToEnd, s.PerLayer} {
				if got := pick(defs, res.Metrics); len(got) != len(defs) {
					t.Errorf("result line has %d metrics, want %d", len(got), len(defs))
				}
			}
			for _, d := range s.EndToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s reads %g", d.Name, res.Metrics[d.Name])
				}
			}
			if len(res.Ledger) == 0 {
				t.Error("no ledger")
			}
		})
	}
}

// The drawn search queries are the one input that depends on the seed
// itself, not only on its order.
func TestSearchInputsArePureFunctionOfSeed(t *testing.T) {
	tr, err := bootSearchTiers(synthConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	bodies := func(seed int64) [][]byte {
		ops, err := searchOps(tr, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, o := range ops {
			out = append(out, o.body)
		}
		return out
	}
	if !reflect.DeepEqual(bodies(3), bodies(3)) {
		t.Error("same seed, different request bodies")
	}
	if reflect.DeepEqual(bodies(3), bodies(4)) {
		t.Error("different seed, same request bodies")
	}
}
