package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"table1", "table2", "figure7a", "noise-sweep", "sweep"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "effective 1") {
		t.Errorf("output missing Table 3 settings:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Figure 7e") {
		t.Errorf("output missing artifact name")
	}
	if !strings.Contains(out.String(), "timing:") {
		t.Errorf("output missing per-trial timing line")
	}
}

// TestTrialParallelismIdenticalTables: the same experiment renders the
// identical table at trial-parallelism 1 and 8 — the engine's core
// reproducibility promise, surfaced end to end.
func TestTrialParallelismIdenticalTables(t *testing.T) {
	tables := func(parallelism string) string {
		var out, errOut bytes.Buffer
		if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "2",
			"-trial-parallelism", parallelism}, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		// Strip the wall-clock-bearing lines; compare the tables.
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "===") || strings.Contains(line, "timing:") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	seq, par := tables("1"), tables("8")
	if seq != par {
		t.Errorf("tables diverged across trial-parallelism:\n%s\nvs\n%s", seq, par)
	}
}

func TestJSONOutputAppendsHistory(t *testing.T) {
	path := t.TempDir() + "/BENCH_core.json"
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "1", "-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	read := func() []benchRun {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var runs []benchRun
		if err := json.Unmarshal(data, &runs); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, data)
		}
		return runs
	}
	runs := read()
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	if runs[0].Time == "" {
		t.Error("run missing timestamp")
	}
	if len(runs[0].Records) != 1 || runs[0].Records[0].ID != "figure7e" {
		t.Fatalf("records = %+v", runs[0].Records)
	}
	if runs[0].Records[0].NsPerOp <= 0 {
		t.Error("ns_per_op must be positive")
	}
	if runs[0].Records[0].HITTasks <= 0 {
		t.Error("figure7e should report its HIT total")
	}

	// A second invocation appends instead of overwriting.
	out.Reset()
	if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "1", "-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("second run exit = %d, stderr: %s", code, errOut.String())
	}
	if runs = read(); len(runs) != 2 {
		t.Fatalf("after second run: %d runs, want 2 (history must append)", len(runs))
	}
	if !strings.Contains(out.String(), "2 runs") {
		t.Errorf("output should report history length:\n%s", out.String())
	}
}

func TestJSONMigratesLegacyFile(t *testing.T) {
	path := t.TempDir() + "/BENCH_core.json"
	legacy := `[{"id":"figure7e","paper":"Figure 7e","seed":7,"trials":1,"ns_per_op":123,"seconds":0.1,"hit_tasks":400}]`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "1", "-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var runs []benchRun
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatalf("invalid JSON after migration: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want legacy run + new run", len(runs))
	}
	if len(runs[0].Records) != 1 || runs[0].Records[0].NsPerOp != 123 {
		t.Errorf("legacy records lost: %+v", runs[0])
	}
}

func TestBaselineReportsDeltas(t *testing.T) {
	path := t.TempDir() + "/BENCH_core.json"
	var out, errOut bytes.Buffer
	// First run: nothing to compare against.
	if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "1", "-json", path, "-baseline"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "no previous run") {
		t.Errorf("first -baseline should note the empty history:\n%s", out.String())
	}
	// Second run: deltas against the first.
	out.Reset()
	if code := run([]string{"-exp", "figure7e", "-seed", "7", "-trials", "1", "-json", path, "-baseline"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "baseline deltas vs") {
		t.Errorf("missing delta report:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "figure7e") || !strings.Contains(out.String(), "%") {
		t.Errorf("delta table incomplete:\n%s", out.String())
	}
}

func TestBaselineRequiresJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "figure7e", "-baseline"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-baseline requires -json") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestJSONOutputBadPath(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "figure7e", "-trials", "1", "-json", "/no/such/dir/b.json"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

func TestJSONCorruptHistory(t *testing.T) {
	path := t.TempDir() + "/BENCH_core.json"
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "figure7e", "-trials", "1", "-json", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1 (corrupt history must not be clobbered)", code)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestWorstRegression pins the comparison the CI gate rides on: only
// runs measured the same way (trial-parallelism) and records
// with the same seed and trial count are comparable, and the worst
// ns/op increase wins.
func TestWorstRegression(t *testing.T) {
	history := []benchRun{{
		Seed: 42, Trials: 2, TrialParallelism: 1,
		Records: []benchRecord{
			{ID: "a", Seed: 42, Trials: 2, NsPerOp: 100},
			{ID: "b", Seed: 42, Trials: 2, NsPerOp: 200},
			{ID: "c", Seed: 7, Trials: 2, NsPerOp: 50}, // different seed: not comparable
		},
	}}
	current := benchRun{
		Seed: 42, Trials: 2, TrialParallelism: 1,
		Records: []benchRecord{
			{ID: "a", Seed: 42, Trials: 2, NsPerOp: 150}, // +50%
			{ID: "b", Seed: 42, Trials: 2, NsPerOp: 190}, // -5%
			{ID: "c", Seed: 42, Trials: 2, NsPerOp: 500}, // incomparable baseline
			{ID: "d", Seed: 42, Trials: 2, NsPerOp: 999}, // no baseline
		},
	}
	worst, id, ok := worstRegression(history, current)
	if !ok || id != "a" || worst < 49.9 || worst > 50.1 {
		t.Errorf("worstRegression = (%.1f, %q, %v), want (+50%%, \"a\", true)", worst, id, ok)
	}
	if _, _, ok := worstRegression(nil, current); ok {
		t.Error("empty history must not be comparable")
	}
	// A previous run on a wider trial pool is not comparable: NsPerOp
	// scales with the pool width.
	wider := current
	wider.TrialParallelism = 4
	if _, _, ok := worstRegression(history, wider); ok {
		t.Error("runs with different trial-parallelism must not be comparable")
	}
}

// TestFailRegressionGate: the CLI must exit 3 when the latency-bound
// benchmark regresses beyond the budget vs the recorded history, and
// still append the failing run so the next comparison self-heals.
func TestFailRegressionGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	// Seed the history with an absurdly fast previous run (measured
	// under the same flags as below) so the real run is guaranteed to
	// "regress".
	history := []benchRun{{
		Seed: 42, Trials: 1, TrialParallelism: 1,
		Records: []benchRecord{{ID: "figure7a", Seed: 42, Trials: 1, NsPerOp: 1}},
	}}
	data, err := json.Marshal(history)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "figure7a", "-seed", "42", "-trials", "1",
		"-json", path, "-fail-regression", "20"}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (regression gate); stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "regressed") {
		t.Errorf("stderr missing regression report: %s", errOut.String())
	}
	// The failing run is still appended.
	var runs []benchRun
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Errorf("history has %d runs, want 2 (failing run recorded)", len(runs))
	}

	// Within budget: a second identical run compares against the real
	// measurement and passes.
	out.Reset()
	errOut.Reset()
	code = run([]string{"-exp", "figure7a", "-seed", "42", "-trials", "1",
		"-json", path, "-fail-regression", "400"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 within budget; stderr: %s", code, errOut.String())
	}
}

// TestFailRegressionRequiresJSON: the gate needs a history file.
func TestFailRegressionRequiresJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "figure7a", "-fail-regression", "20"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestBudgetRegressionGate pins the budget-column gate: an experiment
// whose budget ladder previously exhausted cells but no longer does
// must trip the -fail-regression check even when ns/op improved.
func TestBudgetRegressionGate(t *testing.T) {
	prev := benchRun{Records: []benchRecord{
		{ID: "budget-frontier", Seed: 42, Trials: 2, NsPerOp: 100, BudgetCells: 16, BudgetExhausted: 13},
	}}
	current := benchRun{Records: []benchRecord{
		{ID: "budget-frontier", Seed: 42, Trials: 2, NsPerOp: 50, BudgetCells: 16, BudgetExhausted: 0},
	}}
	if id, ok := budgetRegression([]benchRun{prev}, current); !ok || id != "budget-frontier" {
		t.Errorf("ladder stopped binding: got (%q, %v), want (budget-frontier, true)", id, ok)
	}
	// Still binding (even fewer cells) passes, as do incomparable runs.
	current.Records[0].BudgetExhausted = 1
	if id, ok := budgetRegression([]benchRun{prev}, current); ok {
		t.Errorf("binding ladder flagged: %q", id)
	}
	current.Records[0].BudgetExhausted = 0
	current.Records[0].Trials = 5
	if _, ok := budgetRegression([]benchRun{prev}, current); ok {
		t.Error("runs with different trial counts are not comparable")
	}
	if _, ok := budgetRegression(nil, current); ok {
		t.Error("empty history cannot regress")
	}
}
