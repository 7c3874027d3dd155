// Package sim is the experiment harness: one entry point per table
// and figure of the paper's evaluation (section 6). Each Run function
// regenerates the corresponding artifact — the same rows or series the
// paper reports — against the simulated substrates, and returns a
// result that renders as an aligned text table.
//
// Every artifact rides the generic engine in internal/experiment: a
// Run function declares its cells (one experiment.Config per row,
// point or setting, with the cell's base seed and the shared Options
// knobs) and a trial body that is a pure function of the trial seed;
// the engine fans the independent trials across a bounded worker pool
// and aggregates per-trial observations in trial order. At
// Options.Parallelism 1 the harness reproduces the legacy sequential
// loops byte-for-byte; at higher parallelism the observations — and
// therefore the rendered tables — are identical because trials never
// share randomness or mutable state.
//
// The harness is shared by the cvgbench CLI and by the repository's
// testing.B benchmarks, so `go test -bench .` reproduces the entire
// evaluation.
package sim

import (
	"context"
	"fmt"
	"sort"

	"imagecvg/internal/experiment"
)

// Options carries the runtime knobs every experiment accepts.
type Options struct {
	// Seed is the base random seed; each cell strides it so trial
	// ranges never collide.
	Seed int64
	// Trials is the number of repetitions averaged per cell; values
	// <= 0 run one trial (normalized uniformly by the engine).
	Trials int
	// Parallelism bounds the trial-runner's worker pool; <= 1 runs
	// the trials sequentially and reproduces the pre-engine harness
	// byte-for-byte. Results are identical at every width.
	Parallelism int
	// EngineParallelism, when positive, overrides the audit engine's
	// width inside every trial body (above 1 the audits run in lockstep
	// rounds, and the width bounds the pool lifting oracles into
	// batched rounds); zero keeps each experiment's own default.
	// Against the harness's order-independent oracles every width
	// renders the identical artifact.
	EngineParallelism int
	// Timing optionally collects per-trial wall-clock across the
	// experiment's cells (surfaced by cvgbench).
	Timing *experiment.Recorder
	// Ctx cancels a running experiment: trials that have not started
	// fail fast, and trial bodies that thread Trial.Ctx into their
	// audit options stop at the next committed round. Nil runs to
	// completion.
	Ctx context.Context
}

// cell builds the engine config for one cell of an experiment grid,
// offsetting the base seed by the cell's stride.
func (o Options) cell(name string, seedOffset int64) experiment.Config {
	return experiment.Config{
		Name:              name,
		Seed:              o.Seed + seedOffset,
		Trials:            o.Trials,
		Parallelism:       o.Parallelism,
		EngineParallelism: o.EngineParallelism,
		Timing:            o.Timing,
		Ctx:               o.Ctx,
	}
}

// engineWidth resolves a trial's audit-engine pool width: the
// harness-wide Options.EngineParallelism override when set, the
// experiment's own default otherwise.
func engineWidth(t experiment.Trial, def int) int {
	if t.EngineParallelism > 0 {
		return t.EngineParallelism
	}
	return def
}

// Experiment names one reproducible paper artifact.
type Experiment struct {
	// ID is the harness name, e.g. "table1" or "figure7a".
	ID string
	// Paper is the artifact's name in the paper.
	Paper string
	// Description summarizes the workload.
	Description string
	// Run executes the experiment and returns a printable result.
	Run func(o Options) (fmt.Stringer, error)
}

// Experiments returns the registry of all reproduced artifacts, sorted
// by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{
			ID: "table1", Paper: "Table 1",
			Description: "female coverage on FERET via the simulated crowd, three quality-control settings",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunTable1(DefaultTable1Params(), o)
			},
		},
		{
			ID: "table2", Paper: "Table 2",
			Description: "Classifier-Coverage vs Group-Coverage across nine dataset/classifier pairs",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunTable2(o)
			},
		},
		{
			ID: "figure6a", Paper: "Figure 6a",
			Description: "drowsiness-detection disparity vs added spectacled samples",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure6a(o)
			},
		},
		{
			ID: "figure6b", Paper: "Figure 6b",
			Description: "gender-detection disparity vs added Black-subject samples",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure6b(o)
			},
		},
		{
			ID: "figure7a", Paper: "Figure 7a",
			Description: "tasks vs number of group members f in [0, 2*tau]",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure7a(DefaultFigure7Params(), o)
			},
		},
		{
			ID: "figure7b", Paper: "Figure 7b",
			Description: "tasks vs coverage threshold tau at the worst case f = tau",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure7b(DefaultFigure7Params(), o)
			},
		},
		{
			ID: "figure7c", Paper: "Figure 7c",
			Description: "tasks vs set-size upper bound n",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure7c(DefaultFigure7Params(), o)
			},
		},
		{
			ID: "figure7d", Paper: "Figure 7d",
			Description: "tasks vs dataset size N from 1K to 1M",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure7d(DefaultFigure7Params(), o)
			},
		},
		{
			ID: "figure7e", Paper: "Figure 7e",
			Description: "Multiple-Coverage vs brute force across Table 3 settings (sigma=4)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure7e(DefaultMultiParams(), o)
			},
		},
		{
			ID: "figure7f", Paper: "Figure 7f",
			Description: "Intersectional-Coverage vs brute force across Table 3 settings (2x2x2)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure7f(DefaultMultiParams(), o)
			},
		},
		{
			ID: "figure7g", Paper: "Figure 7g",
			Description: "Multiple-Coverage vs brute force for attribute cardinalities 3..6",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure7g(DefaultMultiParams(), o)
			},
		},
		{
			ID: "figure7h", Paper: "Figure 7h",
			Description: "Intersectional-Coverage for schemas (2,4) and (2,2,2)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunFigure7h(DefaultMultiParams(), o)
			},
		},
		{
			ID: "ablation-core", Paper: "extension",
			Description: "Group-Coverage design-choice ablation (sibling inference, lower-bound counting)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunAblationCore(o)
			},
		},
		{
			ID: "ablation-sampling", Paper: "extension",
			Description: "Multiple-Coverage sampling factor c sweep (paper default c=2)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunAblationSampling(o)
			},
		},
		{
			ID: "noise-sweep", Paper: "extension",
			Description: "audit robustness vs worker slip rate under 3-way majority vote",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunNoiseSweep(o)
			},
		},
		{
			ID: "sampling-baseline", Paper: "extension",
			Description: "exact group testing vs Hoeffding-bound statistical estimation",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunSamplingBaseline(o)
			},
		},
		{
			ID: "aggregation", Paper: "extension",
			Description: "majority vs reliability-weighted voting under spammer-heavy pools",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunAggregationComparison(o)
			},
		},
		{
			ID: "budget-frontier", Paper: "extension",
			Description: "verdict accuracy vs committed-HIT budget across N x tau (lockstep engine, deterministic exhaustion)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunBudgetFrontier(DefaultBudgetFrontierParams(), o)
			},
		},
		{
			ID: "robustness-frontier", Paper: "extension",
			Description: "verdict accuracy vs adversary rate x worker strategy x trust screening (lockstep engine, gold-probe trust middleware)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunRobustnessFrontier(DefaultRobustnessFrontierParams(), o)
			},
		},
		{
			ID: "classifier-strategy", Paper: "extension",
			Description: "Classifier-Coverage Partition/Label switchover across classifier false-positive rates (batched round engine)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunClassifierStrategy(DefaultClassifierParams(), o)
			},
		},
		{
			ID: "sweep", Paper: "extension",
			Description: "N x tau x engine-parallelism grid on the trial-runner, shared query cache across the parallelism axis",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunSweep(DefaultSweepParams(), o)
			},
		},
		{
			ID: "lockstep-latency", Paper: "extension",
			Description: "latency-bound wall-clock of the lockstep scheduler vs the sequential engine (per-HIT round-trip delay)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunLockstepLatency(DefaultLatencyParams(), o)
			},
		},
		{
			ID: "audit-throughput", Paper: "extension",
			Description: "CPU-bound HITs/sec and allocs/HIT of Multiple/Classifier audits over the zero-delay crowd platform (lockstep engine)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunAuditThroughput(DefaultThroughputParams(), o)
			},
		},
		{
			ID: "service-throughput", Paper: "extension",
			Description: "audit-service jobs/sec and steady-state heap under a fleet of small concurrent jobs (journal-per-job engine)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunServiceThroughput(DefaultServiceThroughputParams(), o)
			},
		},
		{
			ID: "journal-overhead", Paper: "extension",
			Description: "checkpoint cost of the fsynced round journal vs the bare lockstep stack (per-HIT round-trip delay)",
			Run: func(o Options) (fmt.Stringer, error) {
				return RunJournalOverhead(DefaultJournalOverheadParams(), o)
			},
		},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
