package sim

import (
	"fmt"
	"math/rand"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/pattern"
	"imagecvg/internal/stats"
)

// SweepParams crosses dataset size, coverage threshold and audit-engine
// parallelism in one run — the scenario grid the trial-runner makes
// cheap. Every (N, tau) pair generates ONE fixed dataset whose
// TruthOracle sits behind a shared query cache; the parallelism axis
// re-audits that same dataset, so the crowd pays for each distinct HIT
// once no matter how many engine settings the grid compares (the
// cross-audit cache reuse the ROADMAP called for).
type SweepParams struct {
	// Ns and Taus span the workload grid.
	Ns, Taus []int
	// Parallelisms are the audit-engine widths compared per workload.
	Parallelisms []int
	// SetSize is the set-query bound n.
	SetSize int
	// MinorityCounts shapes each dataset (majority absorbs the rest),
	// audited as one group per value of a single 4-ary attribute.
	MinorityCounts []int
}

// DefaultSweepParams keeps `-exp all` runs quick while still crossing
// two sizes, two thresholds and two engine widths.
func DefaultSweepParams() SweepParams {
	return SweepParams{
		Ns:             []int{5_000, 20_000},
		Taus:           []int{25, 50},
		Parallelisms:   []int{1, 4},
		SetSize:        50,
		MinorityCounts: []int{10, 8, 6},
	}
}

// SweepRow is one grid cell's outcome.
type SweepRow struct {
	N, Tau, Parallelism int
	// Tasks is the mean Multiple-Coverage task count; identical across
	// the parallelism axis of one workload (engine equivalence).
	Tasks float64
	// MillisPerTrial is the mean per-trial wall-clock.
	MillisPerTrial float64
}

// SweepWorkload summarizes one (N, tau) dataset's shared cache after
// every parallelism cell re-audited it.
type SweepWorkload struct {
	N, Tau int
	// HitRate is the fraction of queries served without a crowd task.
	HitRate float64
	// PaidTasks is the distinct HITs actually charged.
	PaidTasks int
}

// SweepResult is the grid outcome.
type SweepResult struct {
	Params    SweepParams
	Rows      []SweepRow
	Workloads []SweepWorkload
}

// TotalTasks sums the mean task counts, for machine consumers
// (cvgbench -json).
func (r *SweepResult) TotalTasks() float64 {
	total := 0.0
	for _, row := range r.Rows {
		total += row.Tasks
	}
	return total
}

// String renders the grid and the per-workload cache summary.
func (r *SweepResult) String() string {
	t := stats.NewTable("N", "tau", "engine parallelism", "Multiple-Coverage tasks", "ms/trial")
	for _, row := range r.Rows {
		t.AddRow(row.N, row.Tau, row.Parallelism,
			fmt.Sprintf("%.1f", row.Tasks), fmt.Sprintf("%.1f", row.MillisPerTrial))
	}
	c := stats.NewTable("N", "tau", "cache hit rate", "paid HITs")
	for _, w := range r.Workloads {
		c.AddRow(w.N, w.Tau, fmt.Sprintf("%.2f", w.HitRate), w.PaidTasks)
	}
	return fmt.Sprintf("Sweep: N x tau x engine-parallelism on the trial-runner (n=%d)\n%s\nshared query cache per workload:\n%s",
		r.Params.SetSize, t.String(), c.String())
}

// RunSweep runs the grid: every (cell, trial) job fans out across the
// trial-runner's pool. Cells of one workload share both the dataset
// and the cached oracle, and their cell seeds coincide, so trial i
// issues the identical audit at every engine parallelism — the later
// engines ride the first one's paid HITs.
func RunSweep(p SweepParams, o Options) (*SweepResult, error) {
	s := oneAttrSchema(4)
	groups := pattern.GroupsForAttribute(s, 0)

	type workload struct {
		n, tau int
		ids    []dataset.ObjectID
		cache  *core.CachingOracle
	}
	type cell struct {
		wi, parallelism int
	}
	var workloads []*workload
	var cells []cell
	var cfgs []experiment.Config
	for ni, n := range p.Ns {
		for ti, tau := range p.Taus {
			wi := len(workloads)
			seedOffset := int64(10_000*ni + 1_000*ti)
			d, err := dataset.FromCounts(s, buildCounts(4, n, p.MinorityCounts),
				rand.New(rand.NewSource(o.Seed+seedOffset)))
			if err != nil {
				return nil, err
			}
			factory, cache := experiment.SharedCache(core.NewTruthOracle(d))
			workloads = append(workloads, &workload{n: n, tau: tau, ids: d.IDs(), cache: cache})
			for _, par := range p.Parallelisms {
				cells = append(cells, cell{wi, par})
				cfg := o.cell(fmt.Sprintf("sweep/N=%d/tau=%d/P=%d", n, tau, par), seedOffset)
				cfg.Oracle = factory
				cfgs = append(cfgs, cfg)
			}
		}
	}

	results, err := experiment.RunMany(cfgs, func(ci int, t experiment.Trial) (float64, error) {
		c := cells[ci]
		w := workloads[c.wi]
		mres, err := core.MultipleCoverage(t.Oracle, w.ids, p.SetSize, w.tau, groups,
			core.MultipleOptions{Rng: t.Rng, Parallelism: c.parallelism})
		if err != nil {
			return 0, err
		}
		return float64(mres.Tasks), nil
	})
	if err != nil {
		return nil, err
	}

	res := &SweepResult{Params: p}
	for ci, c := range cells {
		r := results[ci]
		var trialMillis float64
		for _, tr := range r.Trials {
			trialMillis += float64(tr.Elapsed.Microseconds()) / 1000
		}
		res.Rows = append(res.Rows, SweepRow{
			N: workloads[c.wi].n, Tau: workloads[c.wi].tau, Parallelism: c.parallelism,
			Tasks:          r.Mean(func(tasks float64) float64 { return tasks }),
			MillisPerTrial: trialMillis / float64(len(r.Trials)),
		})
	}
	for _, w := range workloads {
		st := w.cache.Stats()
		res.Workloads = append(res.Workloads, SweepWorkload{
			N: w.n, Tau: w.tau,
			HitRate:   st.HitRate(),
			PaidTasks: st.Misses.Total(),
		})
	}
	return res, nil
}
