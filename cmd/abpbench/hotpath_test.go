package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// hotpathBase is a GOMAXPROCS=1 snapshot shaped like BENCH_hotpath.json.
func hotpathBase() hotpathReport {
	return hotpathReport{
		Experiment:    "hotpath",
		GOMAXPROCS:    1,
		CalibrationNs: 2,
		Ops: []hotpathOpRow{
			{Deque: "abp", PushPopNs: 15, StealNs: 14, MultiStealNs: 40},
			{Deque: "chaselev", PushPopNs: 16, StealNs: 15, MultiStealNs: 40},
		},
		Contended: &hotpathContended{Thieves: 2, Producers: 2, SubmitNs: 500},
	}
}

// writeBaseline stores rep as a snapshot file and returns its path.
func writeBaseline(t *testing.T, rep hotpathReport) string {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// scaled returns the baseline measured again with every push+pop figure
// multiplied by pushPop and every contended figure by contended.
func scaled(gomaxprocs int, pushPop, contended float64) hotpathReport {
	rep := hotpathBase()
	rep.GOMAXPROCS = gomaxprocs
	for i := range rep.Ops {
		rep.Ops[i].PushPopNs *= pushPop
		rep.Ops[i].MultiStealNs *= contended
	}
	rep.Contended = &hotpathContended{Thieves: 2, Producers: 2, SubmitNs: 500 * contended}
	return rep
}

func TestHotpathCheckSameGOMAXPROCSGatesContended(t *testing.T) {
	path := writeBaseline(t, hotpathBase())
	if !hotpathCheck(scaled(1, 1, 1), path) {
		t.Fatal("an unchanged run failed the gate")
	}
	if hotpathCheck(scaled(1, 1, 2), path) {
		t.Fatal("a 2x contended slowdown at the baseline's GOMAXPROCS passed the gate")
	}
	submitOnly := scaled(1, 1, 1)
	submitOnly.Contended.SubmitNs *= 2
	if hotpathCheck(submitOnly, path) {
		t.Fatal("a 2x contended submit slowdown at the baseline's GOMAXPROCS passed the gate")
	}
}

func TestHotpathCheckOtherGOMAXPROCSSkipsContended(t *testing.T) {
	path := writeBaseline(t, hotpathBase())
	if !hotpathCheck(scaled(2, 1, 4), path) {
		t.Fatal("contended columns were gated against a baseline of another GOMAXPROCS")
	}
	if hotpathCheck(scaled(2, 1.5, 1), path) {
		t.Fatal("push+pop was not gated against a baseline of another GOMAXPROCS")
	}
}

func TestHotpathCheckPushPopBudget(t *testing.T) {
	path := writeBaseline(t, hotpathBase())
	if !hotpathCheck(scaled(1, 1.05, 1), path) {
		t.Fatal("a 5% push+pop slowdown failed the 10% budget")
	}
	if hotpathCheck(scaled(1, 1.2, 1), path) {
		t.Fatal("a 20% push+pop slowdown passed the 10% budget")
	}
	oneDeque := scaled(1, 1, 1)
	oneDeque.Ops[1].PushPopNs *= 1.2
	if hotpathCheck(oneDeque, path) {
		t.Fatal("a 20% chaselev push+pop slowdown passed the 10% budget")
	}
	// Calibration normalizes: a uniformly 2x slower machine is no regression.
	slowHost := scaled(1, 2, 2)
	slowHost.CalibrationNs *= 2
	if !hotpathCheck(slowHost, path) {
		t.Fatal("a uniformly slower host failed the calibrated gate")
	}
}

func TestHotpathCheckNoMatchingRowFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []hotpathOpRow
	}{
		{"other deque kinds", []hotpathOpRow{{Deque: "mutex", PushPopNs: 30, MultiStealNs: 60}}},
		{"no rows", nil},
		{"no push+pop", []hotpathOpRow{{Deque: "abp", MultiStealNs: 40}, {Deque: "chaselev", MultiStealNs: 40}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := hotpathBase()
			base.Ops = tc.ops
			if hotpathCheck(scaled(1, 1, 1), writeBaseline(t, base)) {
				t.Fatal("a check that compared no push+pop row passed")
			}
		})
	}
}
