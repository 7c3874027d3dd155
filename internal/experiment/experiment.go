// Package experiment is the generic parallel experiment engine behind
// the sim harness. The paper's evaluation (section 6) is a matrix of
// experiments — datasets x algorithms x quality-control settings x
// trials — and every cell of that matrix repeats the same shape of
// work: derive a trial seed, build a dataset and an oracle, run an
// audit, record a few observations, aggregate means over the trials.
// This package owns that shape once:
//
//   - Config describes one cell: a name, a base seed, a trial count,
//     the worker-pool width, and an optional oracle factory shared by
//     every trial (so a CachingOracle can amortize repeated HITs
//     across trials — see SharedCache).
//   - Run fans a cell's independent trials out across the bounded
//     worker pool of internal/core (RunBounded); each trial owns a
//     child RNG seeded deterministically from Config.Seed + index, so
//     results are byte-identical at every parallelism level and
//     identical to the legacy sequential loops at parallelism 1.
//   - RunMany flattens a whole grid of cells into one pool, so sweeps
//     with few trials per cell still fill every worker.
//   - Result aggregates the per-trial observations (mean / stddev /
//     95% CI via internal/stats) while preserving trial order.
//
// Trials must be pure functions of their Trial value: everything
// random flows from Trial.Rng (or Trial.Seed), and shared state stays
// inside concurrency-safe oracles. That is what lets the engine
// promise order-independent aggregation under any parallelism.
package experiment

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/stats"
)

// Config describes one cell of an experiment matrix.
type Config struct {
	// Name labels the cell in timing reports, e.g. "table1/majority".
	Name string
	// Seed is the cell's base seed; trial i runs with Seed + i. Grids
	// should stride their cells' base seeds (the harness uses 100 or
	// 1000) so trial ranges never collide.
	Seed int64
	// Trials is the number of independent repetitions; values <= 0 run
	// a single trial, uniformly across every experiment.
	Trials int
	// Parallelism bounds how many of THIS cell's trials run
	// concurrently (a RunMany grid's pool is sized by the widest
	// cell, but each cell never exceeds its own bound); <= 1 runs the
	// cell's trials strictly sequentially, reproducing the legacy
	// harness byte-for-byte. Concurrent trials that share an oracle
	// require it to be concurrency-safe.
	Parallelism int
	// EngineParallelism, when positive, overrides the audit engine's
	// width inside the trial body (above 1 the audits run in lockstep
	// rounds, and the width bounds the pool that lifts oracles into
	// batched rounds) — as distinct from Parallelism, which bounds how
	// many whole trials run at once. It is a pass-through: the engine
	// echoes it on Trial.EngineParallelism and the trial body wires it
	// into its audit options, falling back to the experiment's own
	// default when zero.
	EngineParallelism int
	// Budget, when active, caps the committed crowd queries of each
	// trial's audit. Like EngineParallelism it is a pass-through: the
	// engine echoes it on Trial.Budget and the trial body wires it into
	// its audit options (core.MultipleOptions.Budget /
	// core.ClassifierOptions.Budget), so a grid can sweep the budget
	// axis the same way it sweeps engine widths. Budgeted cells that
	// want width-1 runs byte-identical to wider ones must set
	// core.MultipleOptions.Lockstep in their audit options.
	Budget core.Budget
	// Ctx cancels the cell: a trial whose context is already cancelled
	// fails before it dispatches, and the engine echoes the context on
	// Trial.Ctx so the trial body can thread it into its audit options
	// (core.MultipleOptions.Ctx) — a killed sweep then stops at the next
	// round boundary instead of finishing the in-flight audits. Nil
	// means context.Background().
	Ctx context.Context
	// Oracle optionally builds the oracle a trial audits through. Nil
	// when the trial body constructs its own (the common case: each
	// trial generates its own dataset). Use SharedCache to hand every
	// trial one deduplicating oracle so HITs amortize across trials.
	Oracle Factory
	// Timing, when non-nil, collects per-trial wall-clock across every
	// cell that shares the recorder.
	Timing *Recorder
}

// normalTrials applies the uniform trial-count rule.
func (c Config) normalTrials() int {
	if c.Trials <= 0 {
		return 1
	}
	return c.Trials
}

// Trial hands one repetition its identity and deterministic inputs.
type Trial struct {
	// Cell is the index of the trial's Config in a RunMany grid (0 for
	// Run).
	Cell int
	// Index is the repetition number within the cell.
	Index int
	// Seed is Config.Seed + Index; derive any auxiliary seeds from it
	// (the harness uses fixed offsets like Seed + 7).
	Seed int64
	// Rng is a fresh child RNG seeded with Seed. No other trial ever
	// touches it.
	Rng *rand.Rand
	// EngineParallelism echoes Config.EngineParallelism; zero means
	// the trial body applies its own default engine width.
	EngineParallelism int
	// Budget echoes Config.Budget; the zero value leaves the trial's
	// audits ungoverned.
	Budget core.Budget
	// Ctx echoes Config.Ctx (never nil): thread it into the audit
	// options so cancellation reaches the round boundaries.
	Ctx context.Context
	// Oracle is the cell's shared oracle when Config.Oracle is set;
	// nil otherwise.
	Oracle core.Oracle
}

// TrialResult is one finished repetition.
type TrialResult[T any] struct {
	// Index and Seed identify the trial.
	Index int
	Seed  int64
	// Value is the trial's observation.
	Value T
	// Elapsed is the trial's wall-clock.
	Elapsed time.Duration
	// Cache is the shared oracle's cumulative hit/miss tally when the
	// trial ended, for oracles that expose one (CachingOracle). At
	// Parallelism 1 consecutive snapshots attribute misses to trials
	// exactly; under parallel trials they only bound them.
	Cache core.CacheStats
	// HasCache marks Cache as meaningful.
	HasCache bool
}

// Result is one cell's aggregated outcome.
type Result[T any] struct {
	// Config echoes the cell (with the normalized trial count).
	Config Config
	// Trials holds every repetition in trial order, regardless of
	// completion order.
	Trials []TrialResult[T]
}

// Values lists the observations in trial order.
func (r *Result[T]) Values() []T {
	out := make([]T, len(r.Trials))
	for i, t := range r.Trials {
		out[i] = t.Value
	}
	return out
}

// Last returns the final trial's observation — the deterministic
// stand-in the harness uses for per-cell facts that do not average
// (a chosen strategy, a realized confusion matrix).
func (r *Result[T]) Last() T {
	return r.Trials[len(r.Trials)-1].Value
}

// Summarize aggregates one metric over the trials (mean, stddev, 95%
// CI via stats.Summary). Summation follows trial order, so the mean is
// bit-identical to the legacy sequential accumulation.
func (r *Result[T]) Summarize(metric func(T) float64) stats.Summary {
	xs := make([]float64, len(r.Trials))
	for i, t := range r.Trials {
		xs[i] = metric(t.Value)
	}
	return stats.Summarize(xs)
}

// Mean is shorthand for Summarize(metric).Mean.
func (r *Result[T]) Mean(metric func(T) float64) float64 {
	return r.Summarize(metric).Mean
}

// All reports whether the predicate holds for every trial.
func (r *Result[T]) All(pred func(T) bool) bool {
	for _, t := range r.Trials {
		if !pred(t.Value) {
			return false
		}
	}
	return true
}

// TrialTime sums the per-trial wall-clock — the sequential cost the
// pool amortizes.
func (r *Result[T]) TrialTime() time.Duration {
	var total time.Duration
	for _, t := range r.Trials {
		total += t.Elapsed
	}
	return total
}

// statser is implemented by oracles that tally cache effectiveness.
type statser interface{ Stats() core.CacheStats }

// Run executes one cell: Config.Trials repetitions of fn across at
// most Config.Parallelism workers. Trial results are assembled in
// trial order; the first failing trial aborts the cell (no further
// trials are dispatched — crowd queries cost money).
func Run[T any](cfg Config, fn func(t Trial) (T, error)) (*Result[T], error) {
	results, err := RunMany([]Config{cfg}, func(_ int, t Trial) (T, error) { return fn(t) })
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunMany executes a grid of cells over one shared worker pool, wide
// as the largest cell's Parallelism. The (cell, trial) pairs are
// flattened cell-major, so at parallelism 1 the execution order is
// exactly the legacy nested loop, and grids of many single-trial
// cells still occupy every worker. Each cell's own Parallelism stays
// a hard bound on ITS concurrent trials (a per-cell semaphore), so a
// sequential cell — say one sharing a non-concurrency-safe oracle —
// keeps its guarantee even when a wider sibling sizes the pool. fn
// receives the cell index and the trial.
func RunMany[T any](cfgs []Config, fn func(cell int, t Trial) (T, error)) ([]*Result[T], error) {
	if len(cfgs) == 0 {
		return nil, errors.New("experiment: no configs")
	}
	parallelism := 1
	results := make([]*Result[T], len(cfgs))
	type job struct{ cell, trial int }
	var jobs []job
	for ci, cfg := range cfgs {
		trials := cfg.normalTrials()
		cfg.Trials = trials
		results[ci] = &Result[T]{Config: cfg, Trials: make([]TrialResult[T], trials)}
		for i := 0; i < trials; i++ {
			jobs = append(jobs, job{ci, i})
		}
		if cfg.Parallelism > parallelism {
			parallelism = cfg.Parallelism
		}
	}
	sems := make([]chan struct{}, len(cfgs))
	for ci, cfg := range cfgs {
		if width := max(cfg.Parallelism, 1); width < parallelism {
			sems[ci] = make(chan struct{}, width)
		}
	}

	err := core.RunBounded(parallelism, len(jobs), func(j int) error {
		cell, index := jobs[j].cell, jobs[j].trial
		if sem := sems[cell]; sem != nil {
			sem <- struct{}{}
			defer func() { <-sem }()
		}
		cfg := &results[cell].Config
		ctx := cfg.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		t := Trial{
			Cell:              cell,
			Index:             index,
			Seed:              cfg.Seed + int64(index),
			EngineParallelism: cfg.EngineParallelism,
			Budget:            cfg.Budget,
			Ctx:               ctx,
		}
		t.Rng = rand.New(rand.NewSource(t.Seed))
		if cfg.Oracle != nil {
			var err error
			if t.Oracle, err = cfg.Oracle(t); err != nil {
				return err
			}
		}
		start := time.Now()
		value, err := fn(cell, t)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		tr := TrialResult[T]{Index: index, Seed: t.Seed, Value: value, Elapsed: elapsed}
		if s, ok := t.Oracle.(statser); ok {
			tr.Cache, tr.HasCache = s.Stats(), true
		}
		results[cell].Trials[index] = tr
		cfg.Timing.observe(cfg.Name, elapsed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
