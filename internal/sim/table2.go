package sim

import (
	"fmt"

	"imagecvg/internal/classifier"
	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/stats"
)

// Table2ResultRow is one (dataset, classifier) row of the reproduced
// Table 2.
type Table2ResultRow struct {
	Dataset    string
	Classifier string
	// Accuracy and Precision are the realized statistics of the
	// simulated classifier (they match the published ones by
	// construction, up to rounding).
	Accuracy, Precision float64
	// Strategy chosen by Classifier-Coverage ("partition"/"label").
	Strategy string
	// ClassifierCoverageHITs and GroupCoverageHITs are mean task
	// counts over the trials.
	ClassifierCoverageHITs float64
	GroupCoverageHITs      float64
	// Covered is the (ground-truth-correct) verdict.
	Covered bool
}

// Table2Result is the reproduced Table 2.
type Table2Result struct {
	Rows []Table2ResultRow
}

// String renders the table in the paper's layout.
func (r *Table2Result) String() string {
	t := stats.NewTable("dataset", "classifier", "accuracy", "precision(F)",
		"strategy", "Classifier-Coverage #HITs", "Group-Coverage #HITs", "covered")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Classifier,
			fmt.Sprintf("%.2f", 100*row.Accuracy), fmt.Sprintf("%.2f", 100*row.Precision),
			row.Strategy, row.ClassifierCoverageHITs, row.GroupCoverageHITs, row.Covered)
	}
	return "Table 2: female coverage detection on gender-classified datasets (tau=50, n=50)\n" + t.String()
}

// table2Obs is one trial's outcome for a (dataset, classifier) row.
// Strategy, realized confusion and verdict do not average; the
// harness reports the final trial's (deterministic at any
// parallelism, since trials are pure functions of their seed).
type table2Obs struct {
	ccHITs, gcHITs float64
	strategy       core.Strategy
	realized       classifier.Confusion
	covered        bool
}

// RunTable2 reproduces Table 2: for each of the paper's nine
// (dataset, classifier) configurations, it builds a simulated
// classifier realizing the published accuracy/precision, feeds its
// predicted-female set to Classifier-Coverage, and compares the task
// count against standalone Group-Coverage. Averaged over o.Trials on
// the trial-runner.
func RunTable2(o Options) (*Table2Result, error) {
	const tau, setSize = 50, 50
	rows := classifier.Table2Rows()
	sims := make([]*classifier.Simulated, len(rows))
	cfgs := make([]experiment.Config, len(rows))
	for ri, row := range rows {
		sim, err := row.Build()
		if err != nil {
			return nil, err
		}
		sims[ri] = sim
		cfgs[ri] = o.cell("table2/"+row.Dataset.Name+"/"+row.Classifier, int64(100*ri))
	}
	results, err := experiment.RunMany(cfgs, func(cell int, t experiment.Trial) (table2Obs, error) {
		row, rng := rows[cell], t.Rng
		d := row.Dataset.Generate(rng)
		g := dataset.Female(d.Schema())
		predicted, err := sims[cell].Predict(d, g, rng)
		if err != nil {
			return table2Obs{}, err
		}
		realized, err := classifier.Evaluate(d, g, predicted)
		if err != nil {
			return table2Obs{}, err
		}

		oracle := core.NewTruthOracle(d)
		// The strategy comparison runs on the batched round engine
		// (classifier default width 4); against the TruthOracle the
		// rendered table is byte-identical to the sequential engine's
		// at every width.
		cc, err := core.ClassifierCoverage(oracle, d.IDs(), predicted, setSize, tau, g,
			core.ClassifierOptions{Rng: rng, Parallelism: engineWidth(t, 4)})
		if err != nil {
			return table2Obs{}, err
		}
		gc, err := core.GroupCoverage(core.NewTruthOracle(d), d.IDs(), setSize, tau, g)
		if err != nil {
			return table2Obs{}, err
		}
		return table2Obs{
			ccHITs:   float64(cc.Tasks),
			gcHITs:   float64(gc.Tasks),
			strategy: cc.Strategy,
			realized: realized,
			covered:  cc.Covered,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Table2Result{}
	for ri, row := range rows {
		r := results[ri]
		last := r.Last()
		res.Rows = append(res.Rows, Table2ResultRow{
			Dataset:                row.Dataset.Name,
			Classifier:             row.Classifier,
			Accuracy:               last.realized.Accuracy(),
			Precision:              last.realized.Precision(),
			Strategy:               string(last.strategy),
			ClassifierCoverageHITs: r.Mean(func(v table2Obs) float64 { return v.ccHITs }),
			GroupCoverageHITs:      r.Mean(func(v table2Obs) float64 { return v.gcHITs }),
			Covered:                last.covered,
		})
	}
	return res, nil
}
