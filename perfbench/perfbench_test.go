package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json this
// test holds the program to: every declared metric is printed.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// runShort runs one workload briefly and decodes its result line.
func runShort(t *testing.T, o options) (int, outcome, string) {
	t.Helper()
	o.seed, o.workdir = 7, t.TempDir()
	if o.setups == 0 {
		o.setups = 1
	}
	var out bytes.Buffer
	code, err := run(&out, o)
	if code == 2 {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", o.workload, err, out.String())
	}
	return code, res, out.String()
}

func checkMetrics(t *testing.T, res outcome, want []struct{ Name, Unit string }, report string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d\n%s", len(res.Metrics), len(want), report)
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing\n%s", w.Name, report)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", w.Name, m.Value)
		}
	}
}

// TestWorkloadsShort runs every workload for a fraction of a second,
// untraced and traced: every declared metric is present and finite and
// the oracle passes.
func TestWorkloadsShort(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			code, res, report := runShort(t, options{workload: w.Name, seconds: 0.5, setups: 2})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: exit %d, %+v\n%s", code, res, report)
			}
			checkMetrics(t, res, spec.EndToEnd, report)
			if res.Metrics["setup_s"].Value <= 0 || res.Metrics["ops_per_s"].Value <= 0 {
				t.Errorf("setup_s and ops_per_s must be positive\n%s", report)
			}

			code, res, report = runShort(t, options{workload: w.Name, seconds: 1, trace: true})
			if code != 0 || !res.Correct {
				t.Fatalf("traced run: exit %d\n%s", code, report)
			}
			checkMetrics(t, res, spec.PerLayer, report)
		})
	}
}

// TestSharedSessionIsCaught shares one lockd session between the two
// callers. lockd answers the second acquire of a lock the session holds
// with the same grant, so both callers believe they hold it: the oracle
// must fail the run.
func TestSharedSessionIsCaught(t *testing.T) {
	code, res, report := runShort(t, options{workload: "lockd-hot", seconds: 0.5, shareSession: true})
	if code != 1 || res.Correct {
		t.Fatalf("shared session passed the oracle (exit %d)\n%s", code, report)
	}
	if !strings.Contains(report, "VIOLATION") {
		t.Errorf("report names no violation\n%s", report)
	}
}
