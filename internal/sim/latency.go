package sim

import (
	"fmt"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/pattern"
	"imagecvg/internal/stats"
)

// LatencyParams tunes the latency-bound lockstep comparison: one
// Multiple-Coverage workload audited through an oracle whose every
// query carries a fixed round-trip delay — the regime real crowd
// deployments live in (a real HIT takes minutes; sub-millisecond
// stands in).
type LatencyParams struct {
	// N, Tau, SetSize shape the workload.
	N, Tau, SetSize int
	// MinorityCounts are the non-majority group sizes (the majority
	// absorbs the rest), audited as one group per value of a 4-ary
	// attribute.
	MinorityCounts []int
	// Delay is the simulated per-HIT round-trip.
	Delay time.Duration
	// Parallelism is the lockstep engine's batch-lifting pool width.
	Parallelism int
}

// DefaultLatencyParams picks three near-tau minorities so the
// aggregation keeps them in separate super-groups — four concurrent
// audit tasks whose rounds the scheduler can amortize.
func DefaultLatencyParams() LatencyParams {
	return LatencyParams{
		N: 2_000, Tau: 50, SetSize: 25,
		MinorityCounts: []int{30, 28, 26},
		Delay:          300 * time.Microsecond,
		Parallelism:    4,
	}
}

// LatencyRow is one engine's outcome.
type LatencyRow struct {
	Engine string
	// Tasks is the mean task count — identical across engines, since
	// the oracle is order-independent.
	Tasks float64
	// MillisPerTrial is the mean wall-clock per trial.
	MillisPerTrial float64
}

// LatencyResult compares the sequential engine against lockstep.
type LatencyResult struct {
	Params LatencyParams
	Rows   []LatencyRow // [0] sequential, [1] lockstep
}

// Speedup is the sequential-to-lockstep wall-clock ratio — the number
// the ">= 2x at parallelism 4" acceptance gate checks.
func (r *LatencyResult) Speedup() float64 {
	if len(r.Rows) < 2 || r.Rows[1].MillisPerTrial == 0 {
		return 0
	}
	return r.Rows[0].MillisPerTrial / r.Rows[1].MillisPerTrial
}

// TotalTasks implements the cvgbench task totaler.
func (r *LatencyResult) TotalTasks() float64 {
	total := 0.0
	for _, row := range r.Rows {
		total += row.Tasks
	}
	return total
}

// String renders the comparison. The table carries wall-clock, so this
// artifact is excluded from the byte-exact golden suite; its role is
// the latency-bound benchmark history (BENCH_core.json) CI gates on.
func (r *LatencyResult) String() string {
	t := stats.NewTable("engine", "Multiple-Coverage tasks", "ms/trial")
	for _, row := range r.Rows {
		t.AddRow(row.Engine, fmt.Sprintf("%.1f", row.Tasks), fmt.Sprintf("%.1f", row.MillisPerTrial))
	}
	return fmt.Sprintf(
		"Lockstep under %.1fms/HIT crowd latency (N=%d tau=%d n=%d, engine parallelism %d)\n%s\nlockstep speedup: %.1fx\n",
		float64(r.Params.Delay.Microseconds())/1000, r.Params.N, r.Params.Tau, r.Params.SetSize,
		r.Params.Parallelism, t.String(), r.Speedup())
}

// RunLockstepLatency runs the same workload through the sequential
// Algorithm 2 and through the lockstep engine at the configured
// parallelism, against a DelayOracle. Both cells share trial seeds, so
// they audit identical datasets and issue identical task counts; only
// the wall-clock differs — lockstep posts each virtual round as one
// batch whose round-trips overlap across the pool, which is where
// batched rounds keep the concurrent engine's latency win while
// staying bit-deterministic.
func RunLockstepLatency(p LatencyParams, o Options) (*LatencyResult, error) {
	s := oneAttrSchema(4)
	groups := pattern.GroupsForAttribute(s, 0)
	counts := buildCounts(4, p.N, p.MinorityCounts)

	type engineCell struct {
		name        string
		parallelism int
		lockstep    bool
	}
	cells := []engineCell{
		{"sequential", 1, false},
		{fmt.Sprintf("lockstep-P%d", p.Parallelism), p.Parallelism, true},
	}
	cfgs := make([]experiment.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = o.cell("lockstep-latency/"+c.name, 0)
	}
	results, err := experiment.RunMany(cfgs, func(cell int, t experiment.Trial) (float64, error) {
		d, err := dataset.FromCounts(s, counts, t.Rng)
		if err != nil {
			return 0, err
		}
		oracle := core.DelayOracle{Inner: core.NewTruthOracle(d), Delay: p.Delay}
		mres, err := core.MultipleCoverage(oracle, d.IDs(), p.SetSize, p.Tau, groups,
			core.MultipleOptions{Rng: t.Rng, Parallelism: cells[cell].parallelism, Lockstep: cells[cell].lockstep})
		if err != nil {
			return 0, err
		}
		return float64(mres.Tasks), nil
	})
	if err != nil {
		return nil, err
	}

	res := &LatencyResult{Params: p}
	for i, c := range cells {
		r := results[i]
		var trialMillis float64
		for _, tr := range r.Trials {
			trialMillis += float64(tr.Elapsed.Microseconds()) / 1000
		}
		res.Rows = append(res.Rows, LatencyRow{
			Engine:         c.name,
			Tasks:          r.Mean(func(tasks float64) float64 { return tasks }),
			MillisPerTrial: trialMillis / float64(len(r.Trials)),
		})
	}
	return res, nil
}
