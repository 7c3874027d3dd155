// Command cvgbench regenerates the paper's evaluation artifacts: every
// table and figure of section 6 plus the extension experiments,
// printed as aligned text tables. Experiments run on the parallel
// trial-runner (internal/experiment); -trial-parallelism widens the
// pool and -json appends machine-readable records to a benchmark
// history keyed by git SHA and timestamp.
//
// Usage:
//
//	cvgbench -list
//	cvgbench -exp table1 -seed 42 -trials 5
//	cvgbench -exp all -trial-parallelism 8
//	cvgbench -exp all -json BENCH_core.json -baseline
//	cvgbench -exp lockstep-latency -json BENCH_core.json -fail-regression 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"imagecvg/internal/experiment"
	"imagecvg/internal/sim"
	"imagecvg/internal/stats"
)

// benchRecord is one experiment's machine-readable result, for
// tracking the performance trajectory across commits.
type benchRecord struct {
	ID     string `json:"id"`
	Paper  string `json:"paper"`
	Seed   int64  `json:"seed"`
	Trials int    `json:"trials"`
	// NsPerOp is wall-clock per trial, so records stay comparable
	// across runs with different -trials settings.
	NsPerOp int64 `json:"ns_per_op"`
	// Seconds is the experiment's total wall-clock.
	Seconds float64 `json:"seconds"`
	// TrialSeconds sums per-trial wall-clock across the experiment's
	// cells; Seconds below it means the trial pool paid off.
	TrialSeconds float64 `json:"trial_seconds,omitempty"`
	// HITTasks is the experiment's crowd-task total when the result
	// reports one (the paper's single cost metric).
	HITTasks float64 `json:"hit_tasks,omitempty"`
	// BudgetCells and BudgetExhausted describe budget-governed
	// experiments (budget-frontier): how many grid cells ran under a
	// spend cap and how many hit it. A drop to zero exhausted cells in
	// the history means the budget ladder stopped binding —
	// budgetRegression fails the -fail-regression gate on it alongside
	// the ns/op check.
	BudgetCells     int `json:"budget_cells,omitempty"`
	BudgetExhausted int `json:"budget_exhausted,omitempty"`
	// HITsPerSec and AllocsPerHIT are the CPU-bound throughput metrics
	// reported by the audit-throughput harness: committed HITs per
	// wall-clock second and heap allocations per HIT (process-wide
	// Mallocs delta over the audit, so the harness forces sequential
	// trials to keep it attributable).
	HITsPerSec   float64 `json:"hits_per_sec,omitempty"`
	AllocsPerHIT float64 `json:"allocs_per_hit,omitempty"`
	// JobsPerSec and SteadyHeapBytes are the audit-service metrics
	// reported by the service-throughput harness: completed jobs per
	// second through the persistent-job engine and the post-GC heap
	// once the fleet is terminal but still held by the service.
	JobsPerSec      float64 `json:"jobs_per_sec,omitempty"`
	SteadyHeapBytes float64 `json:"steady_heap_bytes,omitempty"`
}

// benchRun is one cvgbench invocation's records, keyed for the
// append-only history a BENCH file accumulates across commits.
type benchRun struct {
	// SHA is the git commit the run measured (empty outside a repo).
	SHA string `json:"sha,omitempty"`
	// Time is the run's UTC timestamp, RFC 3339.
	Time string `json:"time"`
	// Seed, Trials and TrialParallelism echo the flags.
	Seed             int64 `json:"seed"`
	Trials           int   `json:"trials"`
	TrialParallelism int   `json:"trial_parallelism"`
	// Records holds one entry per experiment run.
	Records []benchRecord `json:"records"`
}

// taskTotaler is implemented by results that can report their total
// crowd cost (e.g. the multi-group figures).
type taskTotaler interface{ TotalTasks() float64 }

// budgetCeller is implemented by budget-governed results
// (budget-frontier) reporting their capped and exhausted cell counts.
type budgetCeller interface{ BudgetCells() (cells, exhausted int) }

// throughputReporter is implemented by results that measured CPU-bound
// audit throughput (audit-throughput).
type throughputReporter interface {
	Throughput() (hitsPerSec, allocsPerHIT float64)
}

// serviceReporter is implemented by results that measured the audit
// service's job throughput (service-throughput).
type serviceReporter interface {
	Service() (jobsPerSec, steadyHeapBytes float64)
}

// gitSHA resolves the current commit, best-effort.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// loadHistory reads an existing benchmark file. Legacy files (a bare
// array of records, the pre-history format) migrate to a single
// unkeyed run so no measurements are lost.
func loadHistory(path string) ([]benchRun, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	// probe detects the format: history entries carry "records",
	// legacy entries carry "id".
	type probe struct {
		ID      string        `json:"id"`
		Records []benchRecord `json:"records"`
	}
	var probes []probe
	if err := json.Unmarshal(data, &probes); err != nil {
		return nil, fmt.Errorf("unreadable benchmark history: %w", err)
	}
	legacy := false
	for _, p := range probes {
		if p.ID != "" {
			legacy = true
			break
		}
	}
	if legacy {
		var records []benchRecord
		if err := json.Unmarshal(data, &records); err != nil {
			return nil, fmt.Errorf("unreadable legacy benchmark file: %w", err)
		}
		return []benchRun{{Records: records}}, nil
	}
	var runs []benchRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("unreadable benchmark history: %w", err)
	}
	return runs, nil
}

// worstRegression compares the current run's records against the
// history's previous run and returns the largest ns/op increase in
// percent, with the offending experiment id. Runs are only comparable
// when they were measured the same way — same trial-parallelism at
// the run level (NsPerOp shrinks roughly linearly with the pool
// width), same seed and trial count per record; ok is false when
// nothing is.
func worstRegression(history []benchRun, current benchRun) (pct float64, id string, ok bool) {
	if len(history) == 0 {
		return 0, "", false
	}
	prev := history[len(history)-1]
	if prev.TrialParallelism != current.TrialParallelism {
		return 0, "", false
	}
	prevByID := make(map[string]benchRecord, len(prev.Records))
	for _, r := range prev.Records {
		prevByID[r.ID] = r
	}
	worst := 0.0
	for _, r := range current.Records {
		p, found := prevByID[r.ID]
		if !found || p.NsPerOp <= 0 || p.Seed != r.Seed || p.Trials != r.Trials {
			continue
		}
		delta := 100 * (float64(r.NsPerOp) - float64(p.NsPerOp)) / float64(p.NsPerOp)
		if !ok || delta > worst {
			worst, id, ok = delta, r.ID, true
		}
	}
	return worst, id, ok
}

// budgetRegression compares the budget columns against the previous
// comparable run: an experiment whose budget ladder used to bind
// (exhausted cells > 0) but no longer does has silently stopped
// testing the exhaustion path — a correctness regression the ns/op
// delta cannot see.
func budgetRegression(history []benchRun, current benchRun) (id string, ok bool) {
	if len(history) == 0 {
		return "", false
	}
	prev := history[len(history)-1]
	prevByID := make(map[string]benchRecord, len(prev.Records))
	for _, r := range prev.Records {
		prevByID[r.ID] = r
	}
	for _, r := range current.Records {
		p, found := prevByID[r.ID]
		if !found || p.Seed != r.Seed || p.Trials != r.Trials {
			continue
		}
		if p.BudgetExhausted > 0 && r.BudgetExhausted == 0 {
			return r.ID, true
		}
	}
	return "", false
}

// reportBaseline prints deltas of the current records against the
// previous run in the history.
func reportBaseline(out io.Writer, history []benchRun, current []benchRecord) {
	if len(history) == 0 {
		fmt.Fprintln(out, "baseline: no previous run recorded")
		return
	}
	prev := history[len(history)-1]
	prevByID := make(map[string]benchRecord, len(prev.Records))
	for _, r := range prev.Records {
		prevByID[r.ID] = r
	}
	label := prev.SHA
	if label == "" {
		label = prev.Time
	}
	if label == "" {
		label = "previous run"
	}
	t := stats.NewTable("experiment", "ns/op", "baseline ns/op", "delta", "HIT tasks delta")
	for _, r := range current {
		p, ok := prevByID[r.ID]
		if !ok || p.NsPerOp <= 0 {
			t.AddRow(r.ID, r.NsPerOp, "-", "-", "-")
			continue
		}
		delta := 100 * (float64(r.NsPerOp) - float64(p.NsPerOp)) / float64(p.NsPerOp)
		t.AddRow(r.ID, r.NsPerOp, p.NsPerOp,
			fmt.Sprintf("%+.1f%%", delta), fmt.Sprintf("%+.1f", r.HITTasks-p.HITTasks))
	}
	fmt.Fprintf(out, "baseline deltas vs %s:\n%s\n", label, t.String())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("cvgbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		exp       = fs.String("exp", "all", "experiment id (see -list), a comma-separated list of ids, or 'all'")
		seed      = fs.Int64("seed", 42, "base random seed")
		trials    = fs.Int("trials", 3, "repetitions averaged per configuration")
		trialPar  = fs.Int("trial-parallelism", 1, "trial-runner worker pool width (1 = sequential harness; results are identical at any width)")
		enginePar = fs.Int("engine-parallelism", 0, "override the audit engine's width inside each trial of the experiments with a fixed engine width (table2, classifier-strategy, figure7e-h; above 1 the audits run in lockstep rounds); 0 keeps their defaults, and experiments that sweep parallelism themselves (sweep, lockstep-latency) keep their own axes — artifacts are identical at any width")
		list      = fs.Bool("list", false, "list available experiments and exit")
		jsonPath  = fs.String("json", "", "append benchmark records (ns/op, HIT counts) to a JSON history keyed by git SHA + timestamp, e.g. BENCH_core.json")
		baseline  = fs.Bool("baseline", false, "with -json: report deltas against the history's previous run")
		failPct   = fs.Float64("fail-regression", 0, "with -json: exit 3 when any experiment's ns/op regresses by more than this percentage vs the history's previous comparable run (0 disables); CI points this at the latency-bound lockstep benchmark")
		cpuProf   = fs.String("cpuprofile", "", "directory for per-experiment CPU profiles (<dir>/<id>.cpu.pprof), created if missing; feed them to 'go tool pprof'")
		memProf   = fs.String("memprofile", "", "directory for per-experiment allocation profiles (<dir>/<id>.mem.pprof), taken after the experiment's final GC")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(out, "available experiments:")
		for _, e := range sim.Experiments() {
			fmt.Fprintf(out, "  %-18s %-10s %s\n", e.ID, e.Paper, e.Description)
		}
		return 0
	}
	if *baseline && *jsonPath == "" {
		fmt.Fprintln(errOut, "cvgbench: -baseline requires -json")
		return 2
	}
	if *failPct > 0 && *jsonPath == "" {
		fmt.Fprintln(errOut, "cvgbench: -fail-regression requires -json")
		return 2
	}

	timing := experiment.NewRecorder()
	opts := sim.Options{Seed: *seed, Trials: *trials, Parallelism: *trialPar,
		EngineParallelism: *enginePar, Timing: timing}

	for _, dir := range []string{*cpuProf, *memProf} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(errOut, "cvgbench:", err)
				return 1
			}
		}
	}
	// profilePath names one experiment's profile inside dir; ids are
	// flat today, but slashes would silently nest directories.
	profilePath := func(dir, id, kind string) string {
		return filepath.Join(dir, strings.ReplaceAll(id, "/", "_")+"."+kind+".pprof")
	}

	var records []benchRecord
	runOne := func(e sim.Experiment) error {
		timing.Reset()
		var cpuFile *os.File
		if *cpuProf != "" {
			f, err := os.Create(profilePath(*cpuProf, e.ID, "cpu"))
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			cpuFile = f
		}
		start := time.Now()
		res, err := e.Run(opts)
		if cpuFile != nil {
			pprof.StopCPUProfile() // flushes cpuFile
			cpuFile.Close()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start)
		if *memProf != "" {
			f, err := os.Create(profilePath(*memProf, e.ID, "mem"))
			if err != nil {
				return err
			}
			runtime.GC() // settle the heap so the profile shows live + cumulative allocs
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			f.Close()
		}
		ts := timing.Summary()
		fmt.Fprintf(out, "=== %s (%s) — %s [%.1fs]\n%s\n",
			e.ID, e.Paper, e.Description, elapsed.Seconds(), res)
		fmt.Fprintf(out, "    timing: %s, wall %.2fs, pool %d\n",
			ts, elapsed.Seconds(), *trialPar)
		perOp := *trials
		if perOp < 1 {
			perOp = 1 // experiments treat non-positive trial counts as 1
		}
		rec := benchRecord{
			ID: e.ID, Paper: e.Paper, Seed: *seed, Trials: *trials,
			NsPerOp: elapsed.Nanoseconds() / int64(perOp), Seconds: elapsed.Seconds(),
			TrialSeconds: ts.TrialTime.Seconds(),
		}
		if tt, ok := res.(taskTotaler); ok {
			rec.HITTasks = tt.TotalTasks()
		}
		if bc, ok := res.(budgetCeller); ok {
			rec.BudgetCells, rec.BudgetExhausted = bc.BudgetCells()
		}
		if tp, ok := res.(throughputReporter); ok {
			rec.HITsPerSec, rec.AllocsPerHIT = tp.Throughput()
		}
		if sp, ok := res.(serviceReporter); ok {
			rec.JobsPerSec, rec.SteadyHeapBytes = sp.Service()
		}
		records = append(records, rec)
		return nil
	}

	if *exp == "all" {
		for _, e := range sim.Experiments() {
			if err := runOne(e); err != nil {
				fmt.Fprintln(errOut, "cvgbench:", err)
				return 1
			}
		}
	} else {
		// A comma-separated list runs several experiments as ONE
		// history entry, so the regression gate compares them all
		// against the previous run together.
		for _, id := range strings.Split(*exp, ",") {
			e, ok := sim.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(errOut, "cvgbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			if err := runOne(e); err != nil {
				fmt.Fprintln(errOut, "cvgbench:", err)
				return 1
			}
		}
	}

	if *jsonPath != "" {
		history, err := loadHistory(*jsonPath)
		if err != nil {
			fmt.Fprintln(errOut, "cvgbench:", err)
			return 1
		}
		if *baseline {
			reportBaseline(out, history, records)
		}
		current := benchRun{
			SHA:  gitSHA(),
			Time: time.Now().UTC().Format(time.RFC3339),
			Seed: *seed, Trials: *trials, TrialParallelism: *trialPar,
			Records: records,
		}
		regressed := false
		if *failPct > 0 {
			if worst, id, ok := worstRegression(history, current); ok && worst > *failPct {
				fmt.Fprintf(errOut, "cvgbench: %s regressed %+.1f%% ns/op vs the previous run (budget %.1f%%)\n",
					id, worst, *failPct)
				regressed = true
			}
			if id, ok := budgetRegression(history, current); ok {
				fmt.Fprintf(errOut, "cvgbench: %s no longer exhausts any budgeted cell (previous run did) — the budget ladder stopped binding\n", id)
				regressed = true
			}
		}
		history = append(history, current)
		data, err := json.MarshalIndent(history, "", "  ")
		if err != nil {
			fmt.Fprintln(errOut, "cvgbench:", err)
			return 1
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(errOut, "cvgbench:", err)
			return 1
		}
		fmt.Fprintf(out, "appended %d benchmark records to %s (%d runs)\n",
			len(records), *jsonPath, len(history))
		if regressed {
			// The failing run is still recorded — the next run compares
			// against it, so a one-off spike does not poison the gate.
			return 3
		}
	}
	return 0
}
