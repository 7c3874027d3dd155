package imagecvg

// One testing.B benchmark per table and figure of the paper's
// evaluation (section 6). Each benchmark regenerates the artifact —
// the same rows or series the paper reports — through the shared
// harness in internal/sim and logs the rendered table once, so
//
//	go test -bench . -benchtime 1x -v
//
// reproduces the entire evaluation. Absolute HIT counts carry
// simulation randomness; the shapes (who wins, by what factor, where
// crossovers fall) are asserted by the test suite in internal/sim.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/experiment"
	"imagecvg/internal/sim"
)

const (
	benchSeed   = 42
	benchTrials = 2
)

// logOnce renders each experiment's table at most once per process so
// repeated b.N iterations do not flood the output.
var logOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := sim.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	var res fmt.Stringer
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.Run(sim.Options{Seed: benchSeed, Trials: benchTrials})
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, logged := logOnce.LoadOrStore(id, true); !logged && res != nil {
		b.Logf("%s (%s)\n%s", exp.Paper, exp.Description, res)
	}
}

// BenchmarkTable1 regenerates Table 1: female-coverage identification
// on the FERET slice through the simulated crowd under three
// quality-control settings (Group-Coverage ~70-80 HITs vs
// Base-Coverage ~300-400 vs upper bound 115).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table 2: Classifier-Coverage against
// standalone Group-Coverage for the nine published
// (dataset, classifier) configurations.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFigure6a regenerates Figure 6a: drowsiness-detection
// accuracy/loss disparity against spectacled subjects as coverage is
// restored.
func BenchmarkFigure6a(b *testing.B) { benchExperiment(b, "figure6a") }

// BenchmarkFigure6b regenerates Figure 6b: gender-detection disparity
// against Black subjects as coverage is restored.
func BenchmarkFigure6b(b *testing.B) { benchExperiment(b, "figure6b") }

// BenchmarkFigure7a regenerates Figure 7a: tasks vs number of group
// members f in [0, 2*tau] at N=100K (cost peaks at f ~ tau).
func BenchmarkFigure7a(b *testing.B) { benchExperiment(b, "figure7a") }

// BenchmarkFigure7b regenerates Figure 7b: tasks vs threshold tau at
// the worst case f = tau (linear growth along the upper bound).
func BenchmarkFigure7b(b *testing.B) { benchExperiment(b, "figure7b") }

// BenchmarkFigure7c regenerates Figure 7c: tasks vs set-size bound n
// (knee near n=10-20, flat logarithmic tail).
func BenchmarkFigure7c(b *testing.B) { benchExperiment(b, "figure7c") }

// BenchmarkFigure7d regenerates Figure 7d: tasks vs dataset size N
// from 1K to 1M (linear, < 6% of N in the plotted range).
func BenchmarkFigure7d(b *testing.B) { benchExperiment(b, "figure7d") }

// BenchmarkFigure7e regenerates Figure 7e: Multiple-Coverage vs brute
// force across the four Table 3 settings at sigma=4.
func BenchmarkFigure7e(b *testing.B) { benchExperiment(b, "figure7e") }

// BenchmarkFigure7f regenerates Figure 7f: Intersectional-Coverage vs
// brute force across the Table 3 settings on (2,2,2).
func BenchmarkFigure7f(b *testing.B) { benchExperiment(b, "figure7f") }

// BenchmarkFigure7g regenerates Figure 7g: Multiple-Coverage vs brute
// force as cardinality grows from 3 to 6 (widening gap).
func BenchmarkFigure7g(b *testing.B) { benchExperiment(b, "figure7g") }

// BenchmarkFigure7h regenerates Figure 7h: Intersectional-Coverage on
// (2,4) vs (2,2,2) (equal subgroup counts, similar cost).
func BenchmarkFigure7h(b *testing.B) { benchExperiment(b, "figure7h") }

// BenchmarkAblationCore regenerates the design-choice ablation table:
// the full Algorithm 1 vs variants without sibling inference and/or
// the checked-based lower bound.
func BenchmarkAblationCore(b *testing.B) { benchExperiment(b, "ablation-core") }

// BenchmarkAblationSampling regenerates the sampling-factor sweep of
// Multiple-Coverage (the paper's c = 2 default against alternatives).
func BenchmarkAblationSampling(b *testing.B) { benchExperiment(b, "ablation-sampling") }

// BenchmarkNoiseSweep regenerates the worker-noise robustness sweep:
// HITs and verdict correctness as slip rates grow from 0 to 35 %.
func BenchmarkNoiseSweep(b *testing.B) { benchExperiment(b, "noise-sweep") }

// BenchmarkSamplingBaseline regenerates the exact-vs-statistical
// comparison: Group-Coverage against Hoeffding-bound sampling across
// group sizes.
func BenchmarkSamplingBaseline(b *testing.B) { benchExperiment(b, "sampling-baseline") }

// BenchmarkAggregation regenerates the truth-inference comparison
// under spammer-heavy worker pools.
func BenchmarkAggregation(b *testing.B) { benchExperiment(b, "aggregation") }

// BenchmarkLockstepLatency regenerates the latency-bound lockstep
// comparison: the deterministic round scheduler must retain >= 2x of
// the concurrent engine's wall-clock win at parallelism 4 under
// per-HIT crowd latency. This is the record the CI regression gate
// tracks in BENCH_core.json.
func BenchmarkLockstepLatency(b *testing.B) { benchExperiment(b, "lockstep-latency") }

// BenchmarkJournalOverhead regenerates the checkpoint-cost comparison:
// the same latency-bound lockstep workload bare vs through the fsynced
// round journal. Crash-safety should cost one binary encode plus one
// fdatasync per committed round — a few percent, not a multiple — and the
// CI regression gate tracks the record in BENCH_core.json.
func BenchmarkJournalOverhead(b *testing.B) { benchExperiment(b, "journal-overhead") }

// benchAuditThroughput runs one cell of the CPU-bound throughput
// harness directly (not through benchExperiment: the harness measures
// its own audit region, and the benchmark surfaces those numbers as
// custom metrics next to the standard allocs/op).
func benchAuditThroughput(b *testing.B, multiple bool) {
	b.ReportAllocs()
	var res *sim.ThroughputResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sim.RunAuditThroughput(sim.DefaultThroughputParams(),
			sim.Options{Seed: benchSeed, Trials: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	row := res.Rows[0]
	if !multiple {
		row = res.Rows[1]
	}
	b.ReportMetric(row.HITsPerSec, "HITs/sec")
	b.ReportMetric(row.AllocsPerHIT, "allocs/HIT")
}

// BenchmarkAuditThroughputMultiple measures the CPU-bound inner loop of
// Multiple-Coverage over the zero-delay crowd platform: ~3x10^4
// committed set HITs per run, reported as HITs/sec and allocs/HIT —
// the record the CI regression gate tracks in BENCH_core.json.
func BenchmarkAuditThroughputMultiple(b *testing.B) { benchAuditThroughput(b, true) }

// BenchmarkAuditThroughputClassifier measures the CPU-bound
// Classifier-Coverage cell (precision sample + Partition phase) of the
// same harness.
func BenchmarkAuditThroughputClassifier(b *testing.B) { benchAuditThroughput(b, false) }

// --- trial-runner benchmarks -----------------------------------------------

// benchmarkHarnessTable1 regenerates Table 1 with 8 crowd deployments
// per setting through the experiment engine at the given
// trial-parallelism — the workload whose wall-clock the trial pool
// targets (24 independent deployments, each a pure function of its
// seed).
func benchmarkHarnessTable1(b *testing.B, parallelism int) {
	exp, ok := sim.Lookup("table1")
	if !ok {
		b.Fatal("table1 missing from registry")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(sim.Options{Seed: benchSeed, Trials: 8, Parallelism: parallelism}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessTable1Sequential is the trial-runner baseline
// (parallelism 1: the legacy sequential harness, byte-for-byte).
func BenchmarkHarnessTable1Sequential(b *testing.B) { benchmarkHarnessTable1(b, 1) }

// BenchmarkHarnessTable1Parallel runs the identical trials across a
// NumCPU-wide pool; the rendered table is identical, the wall-clock is
// not.
func BenchmarkHarnessTable1Parallel(b *testing.B) {
	benchmarkHarnessTable1(b, runtime.NumCPU())
}

// benchmarkTrialRunnerLatency measures the trial-runner on a
// multi-trial experiment whose oracle carries per-HIT latency — the
// regime the paper's deployments live in (a real HIT takes minutes;
// 1ms stands in). Eight independent Group-Coverage audits fan out
// across the pool, so wall-clock shrinks with parallelism even on a
// single core.
func benchmarkTrialRunnerLatency(b *testing.B, parallelism int) {
	ds, err := GenerateBinary(1_000, 20, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	g := FemaleGroup(ds.Schema())
	ids := ds.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := experiment.Run(experiment.Config{
			Name: "latency-audit", Seed: benchSeed, Trials: 8, Parallelism: parallelism,
		}, func(t experiment.Trial) (int, error) {
			// DelayOracle models what dominates a real deployment:
			// every HIT takes wall-clock time to come back.
			o := core.DelayOracle{Inner: core.NewTruthOracle(ds), Delay: time.Millisecond}
			res, err := core.GroupCoverage(o, ids, 50, 20, g)
			if err != nil {
				return 0, err
			}
			return res.Tasks, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrialRunnerLatencySequential is the baseline: 8 trials in
// sequence, each paying its full round-trip latency.
func BenchmarkTrialRunnerLatencySequential(b *testing.B) { benchmarkTrialRunnerLatency(b, 1) }

// BenchmarkTrialRunnerLatencyParallel4 overlaps the same trials on a
// 4-wide pool (>= 2x wall-clock win; latency, not CPU, is the
// bottleneck).
func BenchmarkTrialRunnerLatencyParallel4(b *testing.B) { benchmarkTrialRunnerLatency(b, 4) }

// BenchmarkTrialRunnerLatencyParallel8 saturates the pool at the
// trial count.
func BenchmarkTrialRunnerLatencyParallel8(b *testing.B) { benchmarkTrialRunnerLatency(b, 8) }

// benchmarkMultipleLatency measures ONE Multiple-Coverage audit under
// per-HIT latency at the chosen engine width — the wall-clock the
// lockstep engine must deliver: its rounds commit as
// batches whose round-trips overlap across the pool, so determinism
// does not cost the concurrency win.
func benchmarkMultipleLatency(b *testing.B, parallelism int) {
	schema, err := NewSchema(
		Attribute{Name: "group", Values: []string{"g0", "g1", "g2", "g3"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := DatasetFromCounts(schema, []int{1916, 30, 28, 26}, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	groups := GroupsForAttribute(schema, 0)
	ids := ds.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := core.DelayOracle{Inner: core.NewTruthOracle(ds), Delay: 300 * time.Microsecond}
		auditor := NewAuditor(oracle, 50, 25).WithSeed(benchSeed).WithParallelism(parallelism)
		if _, err := auditor.AuditGroups(ids, groups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultipleLatencySequential is the sequential Algorithm 2
// baseline: every HIT pays its full round-trip in series.
func BenchmarkMultipleLatencySequential(b *testing.B) { benchmarkMultipleLatency(b, 1) }

// BenchmarkMultipleLatencyLockstep4 runs the identical audit on the
// lockstep engine at parallelism 4 (>= 2x wall-clock win with
// bit-identical results at any width).
func BenchmarkMultipleLatencyLockstep4(b *testing.B) { benchmarkMultipleLatency(b, 4) }

// benchmarkClassifierLatency measures ONE Classifier-Coverage audit
// under per-HIT latency at the chosen engine width. The workload is the
// paper's precise-classifier regime (Table 2 FERET rows): a large
// predicted set whose precision sample dominates the sequential
// wall-clock, followed by a Partition phase whose first frontier is a
// wide reverse-set round — both phases the batched engine overlaps
// across the pool while committing the sequential engine's exact task
// breakdown.
func benchmarkClassifierLatency(b *testing.B, parallelism int) {
	ds, err := GenerateBinary(2_000, 400, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	g := FemaleGroup(ds.Schema())
	// 380 true positives, 8 false positives: ~2% estimated FP rate
	// picks partitioning.
	predicted := ds.PredictedSet(g, 380, 8)
	ids := ds.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := core.DelayOracle{Inner: core.NewTruthOracle(ds), Delay: 300 * time.Microsecond}
		auditor := NewAuditor(oracle, 50, 25).WithSeed(benchSeed).WithParallelism(parallelism)
		if _, err := auditor.AuditWithClassifier(ids, predicted, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifierLatencySequential is the sequential Algorithm 4/5
// baseline: every sampling and cleanup HIT pays its full round-trip in
// series.
func BenchmarkClassifierLatencySequential(b *testing.B) { benchmarkClassifierLatency(b, 1) }

// BenchmarkClassifierLatencyLockstep4 runs the identical audit on the
// batched round engine with lockstep commits at parallelism 4 (>= 2x
// wall-clock win with bit-identical results at any width).
func BenchmarkClassifierLatencyLockstep4(b *testing.B) { benchmarkClassifierLatency(b, 4) }

// --- micro-benchmarks of the core machinery --------------------------------

// BenchmarkGroupCoverage100K measures one Group-Coverage audit at the
// paper's default scale (N=100K, f=tau=50, n=50) with a perfect
// oracle: the pure algorithmic cost without crowd simulation.
func BenchmarkGroupCoverage100K(b *testing.B) {
	ds, err := GenerateBinary(100_000, 50, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	g := FemaleGroup(ds.Schema())
	ids := ds.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auditor := NewAuditor(NewTruthOracle(ds), 50, 50)
		if _, err := auditor.AuditGroup(ids, g); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkMultipleCoverage measures one Multiple-Coverage audit of
// four groups (three rare minorities) at N=10K through the given
// engine parallelism — the Figure 7e workload whose wall-clock the
// concurrent engine targets.
func benchmarkMultipleCoverage(b *testing.B, parallelism int) {
	schema, err := NewSchema(
		Attribute{Name: "group", Values: []string{"g0", "g1", "g2", "g3"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{9976, 10, 8, 6}
	ds, err := DatasetFromCounts(schema, counts, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	groups := GroupsForAttribute(schema, 0)
	ids := ds.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auditor := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(benchSeed).WithParallelism(parallelism)
		if _, err := auditor.AuditGroups(ids, groups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultipleCoverageSequential is the engine baseline
// (Parallelism 1: the paper's sequential Algorithm 2).
func BenchmarkMultipleCoverageSequential(b *testing.B) { benchmarkMultipleCoverage(b, 1) }

// BenchmarkMultipleCoverageParallel runs the same audit across a
// NumCPU-wide worker pool; identical verdicts and task counts, lower
// wall-clock once oracle calls carry real latency.
func BenchmarkMultipleCoverageParallel(b *testing.B) {
	benchmarkMultipleCoverage(b, runtime.NumCPU())
}

// BenchmarkSimulatedCrowdSetQuery measures one 50-image set query
// through the full platform (3 workers perceiving rendered glyphs).
func BenchmarkSimulatedCrowdSetQuery(b *testing.B) {
	ds, err := GenerateBinary(1_000, 100, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	crowd, err := NewSimulatedCrowd(ds, benchSeed, CrowdOptions{})
	if err != nil {
		b.Fatal(err)
	}
	g := FemaleGroup(ds.Schema())
	ids := ds.IDs()[:50]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crowd.SetQuery(ids, g); err != nil {
			b.Fatal(err)
		}
	}
}
