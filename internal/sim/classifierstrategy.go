package sim

import (
	"fmt"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/stats"
)

// ClassifierParams tunes the classifier-strategy harness: one binary
// dataset, one simulated predictor per false-positive-rate setting,
// and the Classifier-Coverage audit on the batched round engine.
type ClassifierParams struct {
	// N and Minority shape the dataset; Tau and SetSize the audit.
	N, Minority, Tau, SetSize int
	// PredictedTP is the number of true members every predictor finds;
	// the false-positive count is derived per FPRate setting.
	PredictedTP int
	// FPRates are the realized false-positive rates of the predicted
	// set, spanning the Partition/Label switchover at the 25 %
	// threshold.
	FPRates []float64
	// Parallelism is the batched engine's default pool width
	// (overridden by Options.EngineParallelism).
	Parallelism int
}

// DefaultClassifierParams spans both strategies: rates below the 25 %
// threshold partition, rates above it label.
func DefaultClassifierParams() ClassifierParams {
	return ClassifierParams{
		N: 3_000, Minority: 400, Tau: 50, SetSize: 50,
		PredictedTP: 150,
		FPRates:     []float64{0.05, 0.15, 0.30, 0.50, 0.70},
		Parallelism: 4,
	}
}

// ClassifierStrategyRow is one false-positive-rate setting.
type ClassifierStrategyRow struct {
	FPRate float64
	// Strategy chosen by the audit (deterministic per cell: the final
	// trial's, like Table 2).
	Strategy string
	// ClassifierHITs and GroupHITs are mean task counts over the
	// trials; Sample/Cleanup/Residual break the classifier audit down.
	ClassifierHITs, GroupHITs float64
	Sample, Cleanup, Residual float64
	Covered                   bool
}

// ClassifierStrategyResult is the reproduced strategy comparison.
type ClassifierStrategyResult struct {
	Params ClassifierParams
	Rows   []ClassifierStrategyRow
}

// TotalTasks implements the cvgbench task totaler.
func (r *ClassifierStrategyResult) TotalTasks() float64 {
	total := 0.0
	for _, row := range r.Rows {
		total += row.ClassifierHITs
	}
	return total
}

// String renders the comparison.
func (r *ClassifierStrategyResult) String() string {
	t := stats.NewTable("FP rate", "strategy", "Classifier-Coverage #HITs",
		"sample", "cleanup", "residual", "Group-Coverage #HITs", "covered")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2f", row.FPRate), row.Strategy,
			row.ClassifierHITs, row.Sample, row.Cleanup, row.Residual,
			row.GroupHITs, row.Covered)
	}
	return fmt.Sprintf(
		"Classifier strategy switchover: Partition vs Label across classifier quality (N=%d minority=%d tau=%d n=%d, tp=%d)\n%s",
		r.Params.N, r.Params.Minority, r.Params.Tau, r.Params.SetSize, r.Params.PredictedTP, t.String())
}

// classifierObs is one trial's outcome for an FP-rate cell.
type classifierObs struct {
	cc      core.ClassifierResult
	gcTasks float64
}

// RunClassifierStrategy sweeps the predicted set's false-positive rate
// across the Partition/Label switchover: each cell derives the
// false-positive count realizing its rate, feeds the predicted set to
// Classifier-Coverage on the batched round engine, and prices
// standalone Group-Coverage on the same data. Averaged over o.Trials
// on the trial-runner; the rendered table is identical at every trial
// and engine parallelism (the oracle is order-independent).
func RunClassifierStrategy(p ClassifierParams, o Options) (*ClassifierStrategyResult, error) {
	cfgs := make([]experiment.Config, len(p.FPRates))
	for i, rate := range p.FPRates {
		if rate < 0 || rate >= 1 {
			return nil, fmt.Errorf("sim: false-positive rate %v outside [0, 1)", rate)
		}
		cfgs[i] = o.cell(fmt.Sprintf("classifier-strategy/fp%.2f", rate), int64(500*i))
	}
	results, err := experiment.RunMany(cfgs, func(cell int, t experiment.Trial) (classifierObs, error) {
		rate, rng := p.FPRates[cell], t.Rng
		d, err := dataset.BinaryWithMinority(p.N, p.Minority, rng)
		if err != nil {
			return classifierObs{}, err
		}
		g := dataset.Female(d.Schema())
		// PredictedSet clamps the composition to what the dataset can
		// honor, so non-default params degrade to the closest
		// realizable rate instead of slicing out of range.
		tp := min(p.PredictedTP, p.Minority)
		predicted := d.PredictedSet(g, tp, int(rate/(1-rate)*float64(tp)))
		rng.Shuffle(len(predicted), func(i, j int) { predicted[i], predicted[j] = predicted[j], predicted[i] })

		cc, err := core.ClassifierCoverage(core.NewTruthOracle(d), d.IDs(), predicted, p.SetSize, p.Tau, g,
			core.ClassifierOptions{Rng: rng, Parallelism: engineWidth(t, p.Parallelism)})
		if err != nil {
			return classifierObs{}, err
		}
		gc, err := core.GroupCoverage(core.NewTruthOracle(d), d.IDs(), p.SetSize, p.Tau, g)
		if err != nil {
			return classifierObs{}, err
		}
		return classifierObs{cc: cc, gcTasks: float64(gc.Tasks)}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ClassifierStrategyResult{Params: p}
	for i, rate := range p.FPRates {
		r := results[i]
		last := r.Last()
		res.Rows = append(res.Rows, ClassifierStrategyRow{
			FPRate:         rate,
			Strategy:       string(last.cc.Strategy),
			ClassifierHITs: r.Mean(func(v classifierObs) float64 { return float64(v.cc.Tasks) }),
			Sample:         r.Mean(func(v classifierObs) float64 { return float64(v.cc.SampleTasks) }),
			Cleanup:        r.Mean(func(v classifierObs) float64 { return float64(v.cc.CleanupTasks) }),
			Residual:       r.Mean(func(v classifierObs) float64 { return float64(v.cc.ResidualTasks) }),
			GroupHITs:      r.Mean(func(v classifierObs) float64 { return v.gcTasks }),
			Covered:        last.cc.Covered,
		})
	}
	return res, nil
}
