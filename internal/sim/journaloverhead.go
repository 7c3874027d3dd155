package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/journal"
	"imagecvg/internal/pattern"
	"imagecvg/internal/stats"
)

// JournalOverheadParams tunes the checkpoint-cost measurement: the
// latency-bound lockstep workload audited twice — bare, and through the
// journaling middleware writing the fsynced file codec — so the delta
// isolates what crash-safety costs per committed round.
type JournalOverheadParams struct {
	// N, Tau, SetSize shape the Multiple-Coverage workload.
	N, Tau, SetSize int
	// MinorityCounts are the non-majority group sizes (the majority
	// absorbs the rest).
	MinorityCounts []int
	// Delay is the simulated per-HIT round-trip; journaling amortizes
	// against it — one fsync per round of many delayed HITs.
	Delay time.Duration
	// Parallelism is the lockstep engine's batch-lifting pool width.
	Parallelism int
}

// DefaultJournalOverheadParams mirrors the lockstep-latency workload,
// so the two benchmark histories stay comparable.
func DefaultJournalOverheadParams() JournalOverheadParams {
	return JournalOverheadParams{
		N: 2_000, Tau: 50, SetSize: 25,
		MinorityCounts: []int{30, 28, 26},
		Delay:          300 * time.Microsecond,
		Parallelism:    4,
	}
}

// JournalOverheadRow is one stack's outcome.
type JournalOverheadRow struct {
	Stack string
	// Tasks is the mean task count — identical across stacks, because
	// the journaling middleware is a passthrough for a fresh run.
	Tasks float64
	// Rounds is the mean number of committed (journaled) rounds per
	// trial; zero for the bare stack, which journals nothing.
	Rounds float64
	// MillisPerTrial is the mean wall-clock per trial.
	MillisPerTrial float64
}

// JournalOverheadResult compares the bare lockstep stack against the
// journaling stack with the fsynced file codec.
type JournalOverheadResult struct {
	Params JournalOverheadParams
	Rows   []JournalOverheadRow // [0] bare, [1] journaled
}

// Overhead is the journaled-to-bare wall-clock ratio — the number the
// benchmark history tracks: crash-safety should cost a few percent of a
// latency-bound audit, not a multiple.
func (r *JournalOverheadResult) Overhead() float64 {
	if len(r.Rows) < 2 || r.Rows[0].MillisPerTrial == 0 {
		return 0
	}
	return r.Rows[1].MillisPerTrial / r.Rows[0].MillisPerTrial
}

// TotalTasks implements the cvgbench task totaler.
func (r *JournalOverheadResult) TotalTasks() float64 {
	total := 0.0
	for _, row := range r.Rows {
		total += row.Tasks
	}
	return total
}

// String renders the comparison. Wall-clock lives in the table, so the
// artifact is excluded from the byte-exact golden suite; its role is
// the benchmark history (BENCH_core.json) CI gates on.
func (r *JournalOverheadResult) String() string {
	t := stats.NewTable("stack", "Multiple-Coverage tasks", "rounds", "ms/trial")
	for _, row := range r.Rows {
		t.AddRow(row.Stack, fmt.Sprintf("%.1f", row.Tasks),
			fmt.Sprintf("%.1f", row.Rounds), fmt.Sprintf("%.1f", row.MillisPerTrial))
	}
	return fmt.Sprintf(
		"Round-journal checkpointing under %.1fms/HIT crowd latency (N=%d tau=%d n=%d, engine parallelism %d)\n%s\njournal overhead: %.2fx\n",
		float64(r.Params.Delay.Microseconds())/1000, r.Params.N, r.Params.Tau, r.Params.SetSize,
		r.Params.Parallelism, t.String(), r.Overhead())
}

// journalTrialValue carries one trial's observations across the engine.
type journalTrialValue struct {
	tasks  float64
	rounds float64
}

// RunJournalOverhead runs the same lockstep workload bare and through
// the journaling middleware backed by the fsynced file codec (one
// journal file per trial, removed afterwards). Both cells share trial
// seeds, so they audit identical datasets and commit identical rounds;
// only the wall-clock differs — by one binary encode plus one
// fdatasync per committed round, the price of crash-safe
// checkpoint/resume.
func RunJournalOverhead(p JournalOverheadParams, o Options) (*JournalOverheadResult, error) {
	s := oneAttrSchema(4)
	groups := pattern.GroupsForAttribute(s, 0)
	counts := buildCounts(4, p.N, p.MinorityCounts)

	dir, err := os.MkdirTemp("", "cvg-journal-overhead-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	type stackCell struct {
		name    string
		journal bool
	}
	cells := []stackCell{
		{fmt.Sprintf("lockstep-P%d", p.Parallelism), false},
		{fmt.Sprintf("journal+fsync-P%d", p.Parallelism), true},
	}
	cfgs := make([]experiment.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = o.cell("journal-overhead/"+c.name, 0)
	}
	results, err := experiment.RunMany(cfgs, func(cell int, t experiment.Trial) (journalTrialValue, error) {
		d, err := dataset.FromCounts(s, counts, t.Rng)
		if err != nil {
			return journalTrialValue{}, err
		}
		sc := core.StackConfig{Ctx: t.Ctx}
		if cells[cell].journal {
			jnl, err := journal.Create(filepath.Join(dir, fmt.Sprintf("cell%d-trial%d.jnl", cell, t.Index)))
			if err != nil {
				return journalTrialValue{}, err
			}
			defer jnl.Close()
			sc.Journal = jnl
		}
		st, err := core.NewStack(core.DelayOracle{Inner: core.NewTruthOracle(d), Delay: p.Delay}, sc)
		if err != nil {
			return journalTrialValue{}, err
		}
		mres, err := core.MultipleCoverage(st.Top, d.IDs(), p.SetSize, p.Tau, groups,
			core.MultipleOptions{Rng: t.Rng, Parallelism: p.Parallelism, Lockstep: true, Ctx: t.Ctx})
		if err != nil {
			return journalTrialValue{}, err
		}
		v := journalTrialValue{tasks: float64(mres.Tasks)}
		if st.Journal != nil {
			v.rounds = float64(st.Journal.Rounds())
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	res := &JournalOverheadResult{Params: p}
	for i, c := range cells {
		r := results[i]
		var trialMillis float64
		for _, tr := range r.Trials {
			trialMillis += float64(tr.Elapsed.Microseconds()) / 1000
		}
		res.Rows = append(res.Rows, JournalOverheadRow{
			Stack:          c.name,
			Tasks:          r.Mean(func(v journalTrialValue) float64 { return v.tasks }),
			Rounds:         r.Mean(func(v journalTrialValue) float64 { return v.rounds }),
			MillisPerTrial: trialMillis / float64(len(r.Trials)),
		})
	}
	return res, nil
}
