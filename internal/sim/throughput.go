package sim

import (
	"fmt"
	"runtime"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/pattern"
	"imagecvg/internal/stats"
)

// ThroughputParams tunes the CPU-bound throughput harness: the same
// audit workloads the latency benchmarks run, but against a zero-delay
// crowd platform so nothing hides the inner loop's own cost — HITs/sec
// and allocations per HIT are the metrics, not round-trip overlap.
type ThroughputParams struct {
	// N, Tau, SetSize shape the Multiple-Coverage workload; near-tau
	// minorities keep the super-groups separate, and uncovered groups
	// force full dataset scans (~N/SetSize set HITs per group), which
	// is how the harness reaches 10^4-10^5 committed HITs per trial at
	// default scale and 10^6 when N grows.
	N, Tau, SetSize int
	// MinorityCounts are the non-majority group sizes (the majority
	// absorbs the rest).
	MinorityCounts []int
	// PoolSize is the simulated worker pool; PerceptNoise is zero so
	// workers decode glyphs exactly (no per-pixel Gaussian draws) and
	// the measurement stays on the audit machinery rather than on
	// noise sampling. Slip noise is retained.
	PoolSize int
	// Parallelism is the lockstep engine's batch-lifting pool width.
	Parallelism int
	// ClassifierN, ClassifierTP and ClassifierFP shape the
	// Classifier-Coverage cell: a precise classifier over a smaller
	// dataset (the precision sample plus the Partition phase dominate).
	ClassifierN, ClassifierTP, ClassifierFP int
}

// DefaultThroughputParams commits on the order of 3x10^4 set HITs per
// Multiple-Coverage trial (three uncovered minorities, each scanning
// N/SetSize sets) plus a point-query-heavy classifier cell — large
// enough that per-HIT allocation costs dominate the profile, small
// enough for CI.
func DefaultThroughputParams() ThroughputParams {
	return ThroughputParams{
		N: 100_000, Tau: 50, SetSize: 10,
		MinorityCounts: []int{30, 28, 26},
		PoolSize:       30,
		Parallelism:    4,
		ClassifierN:    20_000, ClassifierTP: 4_000, ClassifierFP: 80,
	}
}

// ThroughputRow is one workload's outcome.
type ThroughputRow struct {
	Workload string
	// HITs is the mean committed crowd queries per trial.
	HITs float64
	// HITsPerSec is the mean audit throughput (committed HITs over the
	// audit's own wall-clock, platform construction excluded).
	HITsPerSec float64
	// AllocsPerHIT is the mean heap allocations per committed HIT
	// across the audit (runtime.MemStats.Mallocs delta over HITs) —
	// the number the allocation attack on the hot path targets.
	AllocsPerHIT float64
	// MillisPerTrial is the mean audit wall-clock per trial.
	MillisPerTrial float64
}

// ThroughputResult is the CPU-bound harness outcome.
type ThroughputResult struct {
	Params ThroughputParams
	Rows   []ThroughputRow // [0] multiple, [1] classifier
}

// TotalTasks implements the cvgbench task totaler.
func (r *ThroughputResult) TotalTasks() float64 {
	total := 0.0
	for _, row := range r.Rows {
		total += row.HITs
	}
	return total
}

// Throughput reports the HIT-weighted aggregate metrics cvgbench
// records in the benchmark history: overall HITs/sec and allocations
// per HIT across the harness's workloads.
func (r *ThroughputResult) Throughput() (hitsPerSec, allocsPerHIT float64) {
	var hits, seconds, allocs float64
	for _, row := range r.Rows {
		if row.HITsPerSec <= 0 {
			continue
		}
		hits += row.HITs
		seconds += row.HITs / row.HITsPerSec
		allocs += row.AllocsPerHIT * row.HITs
	}
	if hits == 0 || seconds == 0 {
		return 0, 0
	}
	return hits / seconds, allocs / hits
}

// String renders the harness outcome. The table carries wall-clock and
// allocation counts, so the artifact is excluded from the byte-exact
// golden suite; its role is the CPU-bound benchmark history
// (BENCH_core.json) CI gates on.
func (r *ThroughputResult) String() string {
	t := stats.NewTable("workload", "HITs/trial", "HITs/sec", "allocs/HIT", "ms/trial")
	for _, row := range r.Rows {
		t.AddRow(row.Workload, fmt.Sprintf("%.0f", row.HITs), fmt.Sprintf("%.0f", row.HITsPerSec),
			fmt.Sprintf("%.1f", row.AllocsPerHIT), fmt.Sprintf("%.1f", row.MillisPerTrial))
	}
	hps, aph := r.Throughput()
	return fmt.Sprintf(
		"CPU-bound audit throughput over the zero-delay crowd platform (N=%d tau=%d n=%d, engine parallelism %d, lockstep)\n%s\naggregate: %.0f HITs/sec, %.1f allocs/HIT\n",
		r.Params.N, r.Params.Tau, r.Params.SetSize, r.Params.Parallelism, t.String(), hps, aph)
}

// throughputObs is one trial's measurement.
type throughputObs struct {
	hits    float64
	seconds float64
	mallocs float64
}

// measureAudit runs one audit body between two MemStats snapshots and
// a wall-clock read. The caller guarantees no other trial runs
// concurrently (Mallocs is process-global), which is why the harness
// pins trial parallelism to 1.
func measureAudit(p *crowd.Platform, audit func() error) (throughputObs, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := audit(); err != nil {
		return throughputObs{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return throughputObs{
		hits:    float64(p.Ledger().TotalHITs()),
		seconds: elapsed.Seconds(),
		mallocs: float64(after.Mallocs - before.Mallocs),
	}, nil
}

// throughputPlatform builds the zero-delay, zero-perceptual-noise
// crowd platform for one trial.
func throughputPlatform(d *dataset.Dataset, poolSize int, seed int64) (*crowd.Platform, error) {
	cfg := crowd.DefaultConfig(seed)
	cfg.Profile = crowd.DefaultProfile(poolSize)
	cfg.Profile.PerceptNoise = 0
	return crowd.NewPlatform(d, cfg)
}

// aggregate folds one cell's trials into a row.
func aggregate(workload string, r *experiment.Result[throughputObs]) ThroughputRow {
	row := ThroughputRow{Workload: workload}
	n := float64(len(r.Trials))
	var seconds, mallocs float64
	for _, tr := range r.Trials {
		row.HITs += tr.Value.hits / n
		seconds += tr.Value.seconds
		mallocs += tr.Value.mallocs
	}
	var hits float64
	for _, tr := range r.Trials {
		hits += tr.Value.hits
	}
	if seconds > 0 {
		row.HITsPerSec = hits / seconds
	}
	if hits > 0 {
		row.AllocsPerHIT = mallocs / hits
	}
	row.MillisPerTrial = seconds / n * 1000
	return row
}

// RunAuditThroughput is the CPU-bound counterpart of the latency
// harness: Multiple-Coverage and Classifier-Coverage audits through
// the full crowd platform with no simulated round-trip delay, on the
// lockstep engine (the platform is order-dependent, so lockstep keeps
// the committed HIT sequence reproducible at every width). Each trial
// brackets its audit with runtime.MemStats snapshots, reporting
// committed HITs/sec and heap allocations per HIT. Trials are forced
// sequential — Mallocs is a process-global counter, so concurrent
// trials would charge each other's allocations.
func RunAuditThroughput(p ThroughputParams, o Options) (*ThroughputResult, error) {
	s := oneAttrSchema(4)
	groups := pattern.GroupsForAttribute(s, 0)
	counts := buildCounts(4, p.N, p.MinorityCounts)

	multCfg := o.cell("audit-throughput/multiple", 0)
	multCfg.Parallelism = 1
	mult, err := experiment.Run(multCfg, func(t experiment.Trial) (throughputObs, error) {
		d, err := dataset.FromCounts(s, counts, t.Rng)
		if err != nil {
			return throughputObs{}, err
		}
		plat, err := throughputPlatform(d, p.PoolSize, t.Seed+7)
		if err != nil {
			return throughputObs{}, err
		}
		return measureAudit(plat, func() error {
			_, err := core.MultipleCoverage(plat, d.IDs(), p.SetSize, p.Tau, groups,
				core.MultipleOptions{Rng: t.Rng, Parallelism: engineWidth(t, p.Parallelism), Lockstep: true})
			return err
		})
	})
	if err != nil {
		return nil, err
	}

	clsCfg := o.cell("audit-throughput/classifier", 500)
	clsCfg.Parallelism = 1
	cls, err := experiment.Run(clsCfg, func(t experiment.Trial) (throughputObs, error) {
		d, err := dataset.BinaryWithMinority(p.ClassifierN, p.ClassifierTP, t.Rng)
		if err != nil {
			return throughputObs{}, err
		}
		g := dataset.Female(d.Schema())
		predicted := d.PredictedSet(g, p.ClassifierTP, p.ClassifierFP)
		t.Rng.Shuffle(len(predicted), func(i, j int) { predicted[i], predicted[j] = predicted[j], predicted[i] })
		plat, err := throughputPlatform(d, p.PoolSize, t.Seed+7)
		if err != nil {
			return throughputObs{}, err
		}
		return measureAudit(plat, func() error {
			_, err := core.ClassifierCoverage(plat, d.IDs(), predicted, p.SetSize, p.Tau, g,
				core.ClassifierOptions{Rng: t.Rng, Parallelism: engineWidth(t, p.Parallelism), Lockstep: true})
			return err
		})
	})
	if err != nil {
		return nil, err
	}

	return &ThroughputResult{
		Params: p,
		Rows: []ThroughputRow{
			aggregate("multiple-coverage", mult),
			aggregate("classifier-coverage", cls),
		},
	}, nil
}
