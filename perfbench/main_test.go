package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestMain sets up twice per run rather than setupReps times: enough to
// exercise teardown and a second set-up, and quick under the race
// detector. The race detector also slows the open-loop generator far
// below its offered rate; the self-test checks outputs and metrics, not
// whether the host could measure, so it lifts the shortfall bound there
// rather than skip every run that borrows from serve_overload.
func TestMain(m *testing.M) {
	setupReps = 2
	if raceEnabled {
		maxShortfall = math.Inf(1)
	}
	os.Exit(m.Run())
}

// runTiny runs one short invocation and decodes its last output line.
// A run the validity bounds reject (exit 3) is a host condition, such as
// a burst of hypervisor steal over its single window, so it is retried.
func runTiny(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := 3
	for try := 0; try < 5 && code == 3; try++ {
		out.Reset()
		code = run(append([]string{"--seconds", "0.2", "--seed", "7", "--out", t.TempDir()}, args...), &out)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\n%s", args, err, out.String())
	}
	return code, res
}

// TestEveryMetricEmitted runs every workload briefly, untraced and
// traced, and checks it reports exactly the metrics BENCHMARK.json names,
// with their units, and that its results checked.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				code, res := runTiny(t, "--workload", w.Name, "--trace", fmt.Sprint(trace))
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptedResultFails feeds every workload's checker one corrupted
// result, and holds one submission of each serve workload back past its
// resolve deadline: either must be counted as failed and fail the
// command, which must not wait for the lost submission.
func TestCorruptedResultFails(t *testing.T) {
	defer func(g time.Duration) { resolveGrace = g }(resolveGrace)
	resolveGrace = 200 * time.Millisecond
	for _, w := range loadSpec(t).Workloads {
		for _, flag := range []string{"--corrupt", "--stall"} {
			if flag == "--stall" && !strings.HasPrefix(w.Name, "serve_") {
				continue
			}
			t.Run(w.Name+flag, func(t *testing.T) {
				code, res := runTiny(t, "--workload", w.Name, flag)
				if code != 1 || res.Correct || res.Failed < 1 {
					t.Errorf("%s run exited %d with correct=%v failed=%d", flag, code, res.Correct, res.Failed)
				}
			})
		}
	}
}

// TestInvalidRunReportsNothing drops every window as if the host stole
// all of its time: the run must stop after maxStretch times its length
// (three 0.2 s windows), print no result and exit 3.
func TestInvalidRunReportsNothing(t *testing.T) {
	defer func(s float64) { maxSteal = s }(maxSteal)
	maxSteal = -1
	var out bytes.Buffer
	t0 := time.Now()
	code := run([]string{"--workload", "dag", "--seconds", "0.2", "--out", t.TempDir()}, &out)
	if took := time.Since(t0); code != 3 || !strings.Contains(out.String(), `"windows":3,`) || strings.Contains(out.String(), `"metrics"`) || took > 30*time.Second {
		t.Errorf("run with every window dropped exited %d after %v:\n%s", code, took, out.String())
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want within 1%% of %v", q, got, want)
		}
	}
}
