package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryMetricPrints runs every workload at tiny sizes, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit. That includes churn-epochs,
// which BENCHMARK.json holds out. Whether the program's outputs passed the
// checks is the result's own verdict (correct, failed), which the test
// logs.
func TestEveryMetricPrints(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for trace, mode := range []string{"0", "1"} {
			t.Run(name+"/trace"+mode, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "5", "--seconds", "2", "--size", "tiny",
					"--trace", mode, "--out", t.TempDir()}
				if err := runMain(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := raw[k]; !ok {
						t.Errorf("result lacks %q", k)
					}
				}
				if len(raw) != 4 {
					t.Errorf("result has %d keys, want 4", len(raw))
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if res.Attempted < 1 || res.Failed > res.Attempted || res.Correct != (res.Failed == 0) {
					t.Errorf("inconsistent counts: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				t.Logf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				for name, unit := range want[trace] {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want[trace]) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want[trace]))
				}
			})
		}
	}
}
