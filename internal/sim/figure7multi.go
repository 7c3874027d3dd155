package sim

import (
	"fmt"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/pattern"
	"imagecvg/internal/stats"
)

// MultiParams fixes the defaults of the multi-group experiments
// (section 6.5.2): N = 10,000, tau = n = 50.
type MultiParams struct {
	N, Tau, SetSize int
	// Parallelism sizes the concurrent engine's worker pool; the
	// experiments run against the order-independent TruthOracle, so
	// any value reproduces the sequential engine's numbers exactly.
	Parallelism int
}

// DefaultMultiParams mirrors the paper; the harness exercises the
// concurrent engine by default.
func DefaultMultiParams() MultiParams {
	return MultiParams{N: 10_000, Tau: 50, SetSize: 50, Parallelism: 4}
}

// MultiSetting is one experiment setting of the paper's Table 3: a
// composition of minority-group sizes chosen to make the super-group
// heuristic shine or fail.
type MultiSetting struct {
	Name        string
	Description string
	// MinorityCounts are the sizes of the non-majority groups; the
	// majority absorbs the remainder of N.
	MinorityCounts []int
}

// Table3Settings returns the paper's four settings (Table 3), with
// compositions matching their descriptions at tau = 50.
func Table3Settings() []MultiSetting {
	return []MultiSetting{
		{
			Name:           "effective 1",
			Description:    "3 uncovered minorities; their aggregated super-group is uncovered",
			MinorityCounts: []int{10, 8, 6},
		},
		{
			Name:           "effective 2",
			Description:    "3 covered minorities",
			MinorityCounts: []int{300, 250, 200},
		},
		{
			Name:           "ineffective",
			Description:    "2 uncovered and one covered minority",
			MinorityCounts: []int{12, 8, 80},
		},
		{
			Name:           "adversarial",
			Description:    "3 uncovered minorities; their aggregated super-group is covered",
			MinorityCounts: []int{30, 28, 26},
		},
	}
}

// MultiRow is one bar pair of Figures 7e-7h.
type MultiRow struct {
	Setting        string
	HeuristicTasks float64 // Multiple- or Intersectional-Coverage
	BruteTasks     float64 // independent Group-Coverage per group
}

// MultiResult is a reproduced multi-group comparison.
type MultiResult struct {
	Name      string
	Heuristic string
	Rows      []MultiRow
}

// TotalTasks sums the heuristic's tasks over all rows, for machine
// consumers (cvgbench -json).
func (r *MultiResult) TotalTasks() float64 {
	total := 0.0
	for _, row := range r.Rows {
		total += row.HeuristicTasks
	}
	return total
}

// String renders the bars as a table.
func (r *MultiResult) String() string {
	t := stats.NewTable("setting", r.Heuristic+" tasks", "Group-Coverage (brute force) tasks")
	for _, row := range r.Rows {
		t.AddRow(row.Setting, fmt.Sprintf("%.1f", row.HeuristicTasks), fmt.Sprintf("%.1f", row.BruteTasks))
	}
	return fmt.Sprintf("Figure 7 (%s)\n%s", r.Name, t.String())
}

// oneAttrSchema builds a single categorical attribute of cardinality c.
func oneAttrSchema(c int) *pattern.Schema {
	values := make([]string, c)
	for i := range values {
		values[i] = fmt.Sprintf("g%d", i)
	}
	return pattern.MustSchema(pattern.Attribute{Name: "group", Values: values})
}

// buildCounts places the majority in subgroup 0 and the minorities in
// the remaining subgroups (padded with zeros).
func buildCounts(numSubgroups, n int, minorities []int) []int {
	counts := make([]int, numSubgroups)
	total := 0
	for i, m := range minorities {
		counts[i+1] = m
		total += m
	}
	counts[0] = n - total
	return counts
}

// bruteForceTasks audits every group independently with Group-Coverage
// over the full dataset — the baseline of Figures 7e-7h.
func bruteForceTasks(d *dataset.Dataset, groups []pattern.Group, setSize, tau int) (int, error) {
	total := 0
	for _, g := range groups {
		o := core.NewTruthOracle(d)
		res, err := core.GroupCoverage(o, d.IDs(), setSize, tau, g)
		if err != nil {
			return 0, err
		}
		total += res.Tasks
	}
	return total, nil
}

// multiObs is one trial's heuristic-vs-brute-force task pair.
type multiObs struct {
	heur, brute float64
}

// multiCell is one bar of a Figure 7e-7h comparison: the schema, the
// groups under audit (nil means all fully-specified subgroups via
// Intersectional-Coverage), the composition, and the seed offset.
type multiCell struct {
	setting    string
	schema     *pattern.Schema
	groups     []pattern.Group // nil: intersectional over the schema
	counts     []int
	seedOffset int64
}

// runMultiCells drives a multi-group comparison on the trial-runner:
// each trial generates the cell's dataset from the trial seed, runs
// the heuristic (Multiple- or Intersectional-Coverage, itself on the
// concurrent audit engine at p.Parallelism), and prices the brute
// force baseline on the same data.
func runMultiCells(id string, cells []multiCell, p MultiParams, o Options) ([]MultiRow, error) {
	cfgs := make([]experiment.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = o.cell(id+"/"+c.setting, c.seedOffset)
	}
	results, err := experiment.RunMany(cfgs, func(cell int, t experiment.Trial) (multiObs, error) {
		c, rng := cells[cell], t.Rng
		d, err := dataset.FromCounts(c.schema, c.counts, rng)
		if err != nil {
			return multiObs{}, err
		}
		oracle := core.NewTruthOracle(d)
		opts := core.MultipleOptions{Rng: rng, Parallelism: engineWidth(t, p.Parallelism)}
		var heurTasks int
		bruteGroups := c.groups
		if c.groups == nil {
			ires, err := core.IntersectionalCoverage(oracle, d.IDs(), p.SetSize, p.Tau, c.schema, opts)
			if err != nil {
				return multiObs{}, err
			}
			heurTasks = ires.Tasks
			bruteGroups = pattern.SubgroupGroups(c.schema)
		} else {
			mres, err := core.MultipleCoverage(oracle, d.IDs(), p.SetSize, p.Tau, c.groups, opts)
			if err != nil {
				return multiObs{}, err
			}
			heurTasks = mres.Tasks
		}
		bt, err := bruteForceTasks(d, bruteGroups, p.SetSize, p.Tau)
		if err != nil {
			return multiObs{}, err
		}
		return multiObs{heur: float64(heurTasks), brute: float64(bt)}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]MultiRow, len(cells))
	for i, c := range cells {
		r := results[i]
		rows[i] = MultiRow{
			Setting:        c.setting,
			HeuristicTasks: r.Mean(func(v multiObs) float64 { return v.heur }),
			BruteTasks:     r.Mean(func(v multiObs) float64 { return v.brute }),
		}
	}
	return rows, nil
}

// RunFigure7e reproduces Figure 7e: Multiple-Coverage against brute
// force for one attribute with sigma = 4 groups under the Table 3
// settings.
func RunFigure7e(p MultiParams, o Options) (*MultiResult, error) {
	s := oneAttrSchema(4)
	groups := pattern.GroupsForAttribute(s, 0)
	var cells []multiCell
	for si, setting := range Table3Settings() {
		cells = append(cells, multiCell{
			setting: setting.Name, schema: s, groups: groups,
			counts:     buildCounts(4, p.N, setting.MinorityCounts),
			seedOffset: int64(1000 * si),
		})
	}
	rows, err := runMultiCells("figure7e", cells, p, o)
	if err != nil {
		return nil, err
	}
	return &MultiResult{
		Name:      fmt.Sprintf("multiple non-intersectional groups, sigma=4, N=%d tau=%d", p.N, p.Tau),
		Heuristic: "Multiple-Coverage",
		Rows:      rows,
	}, nil
}

// threeBinary is the (2,2,2) schema of Figures 7f and 7h.
func threeBinary() *pattern.Schema {
	return pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "c", Values: []string{"0", "1"}},
	)
}

// twoByFour is the (2,4) schema of Figure 7h.
func twoByFour() *pattern.Schema {
	return pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1", "2", "3"}},
	)
}

// intersectionalCounts maps a Table 3 setting onto the 8 fully
// specified subgroups of a schema: subgroup 0 holds the majority,
// subgroups 1..3 the setting's minorities, and the rest get a
// comfortable covered count.
func intersectionalCounts(numSubgroups, n int, minorities []int) []int {
	counts := make([]int, numSubgroups)
	const comfortable = 400
	total := 0
	for i := 1; i < numSubgroups; i++ {
		if i-1 < len(minorities) {
			counts[i] = minorities[i-1]
		} else {
			counts[i] = comfortable
		}
		total += counts[i]
	}
	counts[0] = n - total
	return counts
}

// RunFigure7f reproduces Figure 7f: Intersectional-Coverage against
// brute force on three binary attributes under the Table 3 settings.
func RunFigure7f(p MultiParams, o Options) (*MultiResult, error) {
	s := threeBinary()
	var cells []multiCell
	for si, setting := range Table3Settings() {
		cells = append(cells, multiCell{
			setting: setting.Name, schema: s,
			counts:     intersectionalCounts(s.NumSubgroups(), p.N, setting.MinorityCounts),
			seedOffset: int64(2000 * si),
		})
	}
	rows, err := runMultiCells("figure7f", cells, p, o)
	if err != nil {
		return nil, err
	}
	return &MultiResult{
		Name:      fmt.Sprintf("intersectional groups, (2,2,2), N=%d tau=%d", p.N, p.Tau),
		Heuristic: "Intersectional-Coverage",
		Rows:      rows,
	}, nil
}

// RunFigure7g reproduces Figure 7g: Multiple-Coverage against brute
// force as the attribute cardinality grows from 3 to 6, in the
// effective regime (all minorities rare, joint super-group uncovered).
// The gap to brute force widens with cardinality.
func RunFigure7g(p MultiParams, o Options) (*MultiResult, error) {
	var cells []multiCell
	for _, sigma := range []int{3, 4, 5, 6} {
		s := oneAttrSchema(sigma)
		// sigma-1 rare minorities whose total stays below tau.
		minorities := make([]int, sigma-1)
		for i := range minorities {
			minorities[i] = 30 / (sigma - 1)
		}
		cells = append(cells, multiCell{
			setting: fmt.Sprintf("sigma=%d", sigma), schema: s,
			groups:     pattern.GroupsForAttribute(s, 0),
			counts:     buildCounts(sigma, p.N, minorities),
			seedOffset: int64(3000 * sigma),
		})
	}
	rows, err := runMultiCells("figure7g", cells, p, o)
	if err != nil {
		return nil, err
	}
	return &MultiResult{
		Name:      fmt.Sprintf("multiple groups vs cardinality, N=%d tau=%d", p.N, p.Tau),
		Heuristic: "Multiple-Coverage",
		Rows:      rows,
	}, nil
}

// RunFigure7h reproduces Figure 7h: Intersectional-Coverage on two
// schemas with the same number (8) of fully-specified subgroups —
// (2,4) and (2,2,2) — under identical compositions. As in the paper,
// only the product of cardinalities matters, so the two settings land
// close together.
func RunFigure7h(p MultiParams, o Options) (*MultiResult, error) {
	minorities := []int{10, 8, 6}
	schemas := []struct {
		name string
		s    *pattern.Schema
	}{
		{"sigma1=2, sigma2=4", twoByFour()},
		{"sigma1=2, sigma2=2, sigma3=2", threeBinary()},
	}
	var cells []multiCell
	for si, sc := range schemas {
		cells = append(cells, multiCell{
			setting: sc.name, schema: sc.s,
			counts:     intersectionalCounts(sc.s.NumSubgroups(), p.N, minorities),
			seedOffset: int64(4000 * si),
		})
	}
	rows, err := runMultiCells("figure7h", cells, p, o)
	if err != nil {
		return nil, err
	}
	return &MultiResult{
		Name:      fmt.Sprintf("intersectional schemas with 8 subgroups, N=%d tau=%d", p.N, p.Tau),
		Heuristic: "Intersectional-Coverage",
		Rows:      rows,
	}, nil
}
