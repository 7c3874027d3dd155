package sim

import (
	"fmt"
	"math/rand"

	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/pattern"
	"imagecvg/internal/stats"
)

// The robustness-frontier harness measures verdict accuracy against
// adversarial worker pressure: for each worker strategy (lazy
// always-yes, random spam, colluding liar) at each adversary rate, a
// Multiple-Coverage audit runs through the full crowd simulator twice
// — once bare and once under the core.TrustOracle middleware (gold
// probes, likelihood-ratio scoring, round-boundary screening) — and
// scores the verdicts against ground truth. Audits run on the lockstep
// engine unconditionally: the crowd platform is an order-dependent
// oracle, and only under lockstep is the rendered artifact
// engine-parallelism-invariant and golden-filable.

// RobustnessFrontierParams spans the adversary grid.
type RobustnessFrontierParams struct {
	// N is the dataset size; MinorityCounts shapes it (majority absorbs
	// the rest), audited as one group per value of a single 4-ary
	// attribute.
	N              int
	MinorityCounts []int
	// Tau is the coverage threshold; SetSize the set-query bound n.
	Tau, SetSize int
	// PoolSize and Assignments configure the simulated marketplace.
	PoolSize, Assignments int
	// Strategies are the adversarial worker strategies on the grid
	// (crowd.StrategyByName names); an honest baseline cell is always
	// included.
	Strategies []string
	// Rates are the adversary-stripe fractions of the pool.
	Rates []float64
	// ProbeCount sizes the gold-probe battery of the trust cells.
	ProbeCount int
}

// DefaultRobustnessFrontierParams keeps `-exp all` runs quick while
// crossing every strategy, two adversary rates and both trust
// settings.
func DefaultRobustnessFrontierParams() RobustnessFrontierParams {
	return RobustnessFrontierParams{
		N:              400,
		MinorityCounts: []int{12, 8, 5},
		Tau:            8,
		SetSize:        25,
		PoolSize:       20,
		Assignments:    3,
		Strategies:     []string{"lazy-yes", "random-spam", "colluding-liar"},
		Rates:          []float64{0.3, 0.6},
		ProbeCount:     6,
	}
}

// RobustnessFrontierRow is one (strategy, rate, trust) cell's outcome.
type RobustnessFrontierRow struct {
	Strategy string
	Rate     float64
	Trust    bool
	// Tasks is the mean committed task count (probe HITs included in
	// trust cells — probing is spend).
	Tasks float64
	// Settled is the mean fraction of groups with a definite verdict;
	// Accuracy the mean fraction whose verdict matches ground truth.
	Settled, Accuracy float64
	// Excluded and Probes are the mean screened-worker count and
	// gold-probe count of the trust middleware (zero on bare cells).
	Excluded, Probes float64
}

// RobustnessFrontierResult is the grid outcome.
type RobustnessFrontierResult struct {
	Params RobustnessFrontierParams
	Rows   []RobustnessFrontierRow
}

// TotalTasks sums the mean committed task counts, for machine
// consumers (cvgbench -json).
func (r *RobustnessFrontierResult) TotalTasks() float64 {
	total := 0.0
	for _, row := range r.Rows {
		total += row.Tasks
	}
	return total
}

// String renders the robustness curve per strategy.
func (r *RobustnessFrontierResult) String() string {
	t := stats.NewTable("strategy", "rate", "trust", "tasks", "settled", "verdict accuracy", "excluded", "probes")
	for _, row := range r.Rows {
		t.AddRow(row.Strategy,
			fmt.Sprintf("%.2f", row.Rate),
			fmt.Sprintf("%v", row.Trust),
			fmt.Sprintf("%.1f", row.Tasks),
			fmt.Sprintf("%.2f", row.Settled),
			fmt.Sprintf("%.2f", row.Accuracy),
			fmt.Sprintf("%.1f", row.Excluded),
			fmt.Sprintf("%.1f", row.Probes))
	}
	return fmt.Sprintf("Robustness frontier: verdict accuracy vs adversary rate x strategy x trust screening (N=%d, tau=%d, n=%d, lockstep engine)\n%s",
		r.Params.N, r.Params.Tau, r.Params.SetSize, t.String())
}

// rfObservation is one trial's scores.
type rfObservation struct {
	tasks, settled, accuracy float64
	excluded, probes         float64
}

// RunRobustnessFrontier runs the grid: one shared dataset (a pure
// function of o.Seed), an honest baseline plus every strategy x rate
// combination, each with and without the trust middleware. Every audit
// runs on the lockstep engine so the artifact is invariant to
// -engine-parallelism.
func RunRobustnessFrontier(p RobustnessFrontierParams, o Options) (*RobustnessFrontierResult, error) {
	s := oneAttrSchema(4)
	groups := pattern.GroupsForAttribute(s, 0)
	d, err := dataset.FromCounts(s, buildCounts(4, p.N, p.MinorityCounts),
		rand.New(rand.NewSource(o.Seed+77)))
	if err != nil {
		return nil, err
	}
	covered := make([]bool, len(groups))
	for gi, g := range groups {
		count := 0
		for i := 0; i < d.Size(); i++ {
			if g.Matches(d.At(i).Labels) {
				count++
			}
		}
		covered[gi] = count >= p.Tau
	}
	// The gold-probe battery is shared by every trust cell: a pure
	// function of (dataset, groups, seed), identical across trials and
	// engine widths.
	probes := core.GoldProbes(d, groups, p.ProbeCount, o.Seed+99)

	type cell struct {
		strategy string
		rate     float64
		trust    bool
	}
	var cells []cell
	var cfgs []experiment.Config
	for _, trust := range []bool{false, true} {
		adversaries := []cell{{strategy: "honest", rate: 0, trust: trust}}
		for _, strat := range p.Strategies {
			for _, rate := range p.Rates {
				adversaries = append(adversaries, cell{strategy: strat, rate: rate, trust: trust})
			}
		}
		for _, c := range adversaries {
			cfgs = append(cfgs, o.cell(
				fmt.Sprintf("robustness-frontier/strategy=%s/rate=%.2f/trust=%v", c.strategy, c.rate, c.trust),
				int64(1000*len(cells))))
			cells = append(cells, c)
		}
	}

	results, err := experiment.RunMany(cfgs, func(ci int, t experiment.Trial) (rfObservation, error) {
		c := cells[ci]
		log := &crowd.ResponseLog{}
		cfg := crowd.DefaultConfig(t.Seed + 7)
		cfg.Profile = crowd.DefaultProfile(p.PoolSize)
		cfg.Assignments = p.Assignments
		cfg.Responses = log
		if c.strategy != "honest" {
			strat, err := crowd.StrategyByName(c.strategy)
			if err != nil {
				return rfObservation{}, err
			}
			cfg.Adversary = crowd.AdversaryConfig{Rate: c.rate, Strategy: strat}
		}
		platform, err := crowd.NewPlatform(d, cfg)
		if err != nil {
			return rfObservation{}, err
		}

		var sc core.StackConfig
		if c.trust {
			sc.Trust = &core.TrustConfig{Probes: probes, Feed: log, Screen: platform}
		}
		st, err := core.NewStack(platform, sc)
		if err != nil {
			return rfObservation{}, err
		}

		// Lockstep is unconditional: the crowd platform's answers are
		// order-dependent, and the trust middleware's probe schedule
		// rides the committed round sequence.
		mres, err := core.MultipleCoverage(st.Top, d.IDs(), p.SetSize, p.Tau, groups,
			core.MultipleOptions{
				Rng:         t.Rng,
				Parallelism: engineWidth(t, 1),
				Lockstep:    true,
			})
		if err != nil {
			return rfObservation{}, err
		}
		obs := rfObservation{tasks: float64(mres.Tasks)}
		for gi, r := range mres.Results {
			if !r.Settled {
				continue
			}
			obs.settled++
			if r.Covered == covered[gi] {
				obs.accuracy++
			}
		}
		obs.settled /= float64(len(groups))
		obs.accuracy /= float64(len(groups))
		if st.Trust != nil {
			rep := st.Trust.Report()
			obs.excluded = float64(rep.Excluded)
			obs.probes = float64(rep.ProbesIssued)
		}
		return obs, nil
	})
	if err != nil {
		return nil, err
	}

	res := &RobustnessFrontierResult{Params: p}
	for ci, c := range cells {
		r := results[ci]
		res.Rows = append(res.Rows, RobustnessFrontierRow{
			Strategy: c.strategy,
			Rate:     c.rate,
			Trust:    c.trust,
			Tasks:    r.Mean(func(v rfObservation) float64 { return v.tasks }),
			Settled:  r.Mean(func(v rfObservation) float64 { return v.settled }),
			Accuracy: r.Mean(func(v rfObservation) float64 { return v.accuracy }),
			Excluded: r.Mean(func(v rfObservation) float64 { return v.excluded }),
			Probes:   r.Mean(func(v rfObservation) float64 { return v.probes }),
		})
	}
	return res, nil
}
