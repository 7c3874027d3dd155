package crowd

// The kill/resume conformance matrix for crash-safe audit jobs: an
// audit is killed (context cancellation) after K committed rounds, the
// journal's K records are replayed into a fresh engine over the SAME
// platform — the crowd is external state that survives the job process,
// exactly like a real deployment — and the resumed run must finish with
// verdicts, task tallies, ledger spend, HIT transcript and Dawid-Skene
// truth inference byte-identical to an uninterrupted run. The matrix
// spans all three batched audit algorithms, budgeted and unbudgeted
// stacks, and every engine Parallelism value; the whole suite also runs
// under -race in CI, so replay determinism is checked on genuinely
// concurrent schedules.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// memoryJournal collects committed rounds in memory; the file codec has
// its own crash-safety suite (internal/journal), so the matrix here
// isolates the replay semantics.
type memoryJournal struct {
	recs []core.RoundRecord
}

func (m *memoryJournal) Append(rec core.RoundRecord) error {
	m.recs = append(m.recs, rec)
	return nil
}

// cancelAfterJournal kills the job after `after` committed rounds: the
// cancellation fires inside Append — after the round committed to the
// crowd AND reached the journal — so the next round fails its context
// check before touching the platform. That is the crash model the
// journal contract promises to survive: every round either committed
// and was journaled, or never happened.
type cancelAfterJournal struct {
	inner  core.RoundJournal
	after  int
	count  int
	cancel context.CancelFunc
}

func (c *cancelAfterJournal) Append(rec core.RoundRecord) error {
	if err := c.inner.Append(rec); err != nil {
		return err
	}
	c.count++
	if c.count == c.after {
		c.cancel()
	}
	return nil
}

// journalBudget derives a deterministic per-instance spend cap small
// enough that budgeted cells actually exhaust mid-audit on some
// instances (exercising the "budget" round outcome on replay) and large
// enough that others complete.
func journalBudget(inst conformanceInstance) core.Budget {
	return core.Budget{MaxHITs: 25 + int(inst.auditSeed%40)}
}

// runJournalCell executes one audit over an existing platform through a
// journaling stack built by core.NewStack (journal -> optional governor
// -> platform) and serializes everything observable, exactly like
// runConformanceCell.
// The audit error is returned un-fataled so killed runs can assert
// cancellation.
func runJournalCell(t *testing.T, inst conformanceInstance, parallelism int,
	d *dataset.Dataset, p *Platform, log *ResponseLog,
	jnl core.RoundJournal, replay []core.RoundRecord, ctx context.Context,
	budgeted bool) (string, *core.JournalingOracle, error) {
	t.Helper()

	sc := core.StackConfig{Journal: jnl, Replay: replay, Ctx: ctx}
	if budgeted {
		b := journalBudget(inst)
		sc.Budget = &b
	}
	st, err := core.NewStack(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	jo, gov := st.Journal, st.Governor

	opts := core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(inst.auditSeed)),
		Parallelism: parallelism,
		Lockstep:    st.Lockstep(),
		Ctx:         ctx,
	}
	var audit string
	switch inst.kind {
	case "intersectional":
		var res *core.IntersectionalResult
		res, err = core.IntersectionalCoverage(st.Top, d.IDs(), inst.setSize, inst.tau, inst.schema, opts)
		if err == nil {
			audit = fmt.Sprintf("%+v|%+v|%d|%d", res.Verdicts, res.MUPs, res.ResolutionTasks, res.Tasks)
		}
	case "classifier":
		g := pattern.GroupsForAttribute(inst.schema, 0)[1]
		predicted := d.PredictedSet(g, inst.classifierTP, inst.classifierFP)
		var res core.ClassifierResult
		res, err = core.ClassifierCoverage(st.Top, d.IDs(), predicted, inst.setSize, inst.tau, g,
			core.ClassifierOptions{
				Rng:         rand.New(rand.NewSource(inst.auditSeed)),
				Parallelism: parallelism,
				Lockstep:    st.Lockstep(),
				Ctx:         ctx,
			})
		if err == nil {
			audit = fmt.Sprintf("%+v", res)
		}
	default:
		groups := pattern.GroupsForAttribute(inst.schema, 0)
		var res *core.MultipleResult
		res, err = core.MultipleCoverage(st.Top, d.IDs(), inst.setSize, inst.tau, groups, opts)
		if err == nil {
			audit = fmt.Sprintf("%+v|%+v|%d|%d|%d", res.Results, res.SuperAudits,
				res.SampleTasks, res.AuditTasks, res.Tasks)
		}
	}
	if err != nil {
		return "", jo, err
	}

	spent := "no-budget"
	if gov != nil {
		spent = fmt.Sprintf("%+v", gov.Spent())
	}
	ds := "no-hits"
	if log.HITs() > 0 {
		res, derr := DawidSkene(log.HITs(), p.PoolSize(), 2, log.Responses(), 25)
		if derr != nil {
			t.Fatal(derr)
		}
		ds = fmt.Sprintf("%v|%.9v|%d", res.Truth, res.WorkerAccuracy, res.Iterations)
	}
	state := fmt.Sprintf("audit=%s\nspend=%s\ngovernor=%s\neligible=%d\nhits=%d\ndawid-skene=%s",
		audit, p.Ledger().Snapshot().String(), spent, p.EligibleWorkers(), log.HITs(), ds)
	return state, jo, nil
}

// freshCellPlatform rebuilds the dataset and platform for one cell; the
// dataset is a pure function of the instance seed, so every platform of
// a cell audits identical objects.
func freshCellPlatform(t *testing.T, inst conformanceInstance) (*dataset.Dataset, *Platform, *ResponseLog) {
	t.Helper()
	d := dataset.MustFromCounts(inst.schema, inst.counts, rand.New(rand.NewSource(inst.platformSeed+1)))
	log := &ResponseLog{}
	return d, platformFor(t, inst, d, log), log
}

// TestKillResumeConformance is the crash-safety matrix: randomized
// crowd-pipeline instances across Multiple-, Intersectional- and
// Classifier-Coverage, budgeted and unbudgeted, each killed after half
// its committed rounds and resumed from the journal at P in
// {1, 2, 4, 16}, asserting the resumed run's full observable state —
// verdicts, task tallies, ledger spend, governor ledger, HIT transcript
// and truth inference — is byte-identical to the uninterrupted run, and
// the final journal record sequence matches record for record.
func TestKillResumeConformance(t *testing.T) {
	instances := 12
	pars := []int{1, 2, 4, 16}
	if testing.Short() {
		instances = 6
		pars = []int{1, 4}
	}
	rng := rand.New(rand.NewSource(20240))
	for i := 0; i < instances; i++ {
		inst := generateInstance(rng, conformanceKind(i))
		budgeted := (i/3)%2 == 1
		t.Run(fmt.Sprintf("%02d-%s-budgeted=%v", i, inst.kind, budgeted), func(t *testing.T) {
			// Uninterrupted baseline at P=1. Its journal records double
			// as the reference record sequence: under lockstep the round
			// sequence is a pure function of committed answers, so every
			// cell below must reproduce it exactly.
			d, pA, logA := freshCellPlatform(t, inst)
			baseJnl := &memoryJournal{}
			base, _, err := runJournalCell(t, inst, 1, d, pA, logA, baseJnl, nil,
				context.Background(), budgeted)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			rounds := len(baseJnl.recs)
			if rounds < 2 {
				t.Fatalf("degenerate instance: only %d committed rounds (kill point needs >= 2)", rounds)
			}
			kill := rounds / 2

			for _, par := range pars {
				par := par
				t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
					// Kill: fresh platform, cancel after half the rounds.
					// The platform survives the "crash" — it is the
					// external crowd — and the journal holds exactly the
					// rounds that reached it.
					dB, pB, logB := freshCellPlatform(t, inst)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					jnl := &memoryJournal{}
					killer := &cancelAfterJournal{inner: jnl, after: kill, cancel: cancel}
					_, _, err := runJournalCell(t, inst, par, dB, pB, logB, killer, nil, ctx, budgeted)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("killed run: err = %v, want context.Canceled", err)
					}
					if len(jnl.recs) != kill {
						t.Fatalf("killed run journaled %d rounds, want exactly %d", len(jnl.recs), kill)
					}

					// Resume: same platform, same transcript log, replay
					// the journaled rounds (appending the live remainder
					// to the same journal), fresh governor restored from
					// the snapshots.
					replay := append([]core.RoundRecord(nil), jnl.recs...)
					resumed, jo, err := runJournalCell(t, inst, par, dB, pB, logB, jnl, replay,
						context.Background(), budgeted)
					if err != nil {
						t.Fatalf("resumed run: %v", err)
					}
					if got := jo.Replayed(); got != kill {
						t.Fatalf("resumed run replayed %d rounds, want %d", got, kill)
					}
					if resumed != base {
						t.Fatalf("resumed state diverged from uninterrupted run:\n--- resumed (P=%d, killed at %d/%d) ---\n%s\n--- uninterrupted ---\n%s",
							par, kill, rounds, resumed, base)
					}
					if len(jnl.recs) != rounds {
						t.Fatalf("final journal holds %d rounds, want %d", len(jnl.recs), rounds)
					}
					if !reflect.DeepEqual(jnl.recs, baseJnl.recs) {
						for r := range jnl.recs {
							if !reflect.DeepEqual(jnl.recs[r], baseJnl.recs[r]) {
								t.Fatalf("journal record %d diverged from the uninterrupted run:\n%+v\nvs\n%+v",
									r, jnl.recs[r], baseJnl.recs[r])
							}
						}
						t.Fatal("journal record sequences diverged")
					}
				})
			}
		})
	}
}

// runTrustJournalCell executes one Multiple-Coverage audit over an
// existing platform through the adversarial stack core.NewStack builds
// — trust -> journal -> platform — and serializes the observable state INCLUDING the
// trust report. The trust middleware sits above the journal, so the
// journal records (and replays) the probe-augmented rounds; a fresh
// TrustOracle on resume re-issues the identical probes from its
// deterministic schedule and re-reads the surviving platform's
// response log from cursor zero, restoring every trust score exactly.
func runTrustJournalCell(t *testing.T, ai adversarialInstance, parallelism int,
	d *dataset.Dataset, p *Platform, log *ResponseLog,
	jnl core.RoundJournal, replay []core.RoundRecord, ctx context.Context) (string, *core.JournalingOracle, error) {
	t.Helper()

	st, err := core.NewStack(p, core.StackConfig{
		Journal: jnl,
		Replay:  replay,
		Trust:   &core.TrustConfig{Probes: trustProbesFor(d, ai), Feed: log, Screen: p},
		Ctx:     ctx,
	})
	if err != nil {
		t.Fatal(err)
	}

	groups := pattern.GroupsForAttribute(ai.schema, 0)
	res, err := core.MultipleCoverage(st.Top, d.IDs(), ai.setSize, ai.tau, groups, core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(ai.auditSeed)),
		Parallelism: parallelism,
		Lockstep:    st.Lockstep(),
		Ctx:         ctx,
	})
	if err != nil {
		return "", st.Journal, err
	}
	audit := fmt.Sprintf("%+v|%+v|%d|%d|%d", res.Results, res.SuperAudits,
		res.SampleTasks, res.AuditTasks, res.Tasks)
	ds := "no-hits"
	if log.HITs() > 0 {
		dres, derr := DawidSkene(log.HITs(), p.PoolSize(), 2, log.Responses(), 25)
		if derr != nil {
			t.Fatal(derr)
		}
		ds = fmt.Sprintf("%v|%.9v|%d", dres.Truth, dres.WorkerAccuracy, dres.Iterations)
	}
	state := fmt.Sprintf("audit=%s\nspend=%s\neligible=%d\nhits=%d\ndawid-skene=%s\ntrust=%+v",
		audit, p.Ledger().Snapshot().String(), p.EligibleWorkers(), log.HITs(), ds, st.Trust.Report())
	return state, st.Journal, nil
}

// TestKillResumeTrustConformance is the adversarial cell of the
// kill/resume matrix: an audit over a pool with a colluding-liar
// stripe, screened by an active TrustOracle, killed after half its
// committed rounds and resumed from the journal at P in {1, 2, 4, 16}.
// The resumed run must restore the trust scores and the exclusion set
// and finish byte-identical to the uninterrupted run — verdicts,
// spend, eligible pool, transcript, truth inference and trust report.
func TestKillResumeTrustConformance(t *testing.T) {
	instances := 3
	pars := []int{1, 2, 4, 16}
	if testing.Short() {
		instances = 1
		pars = []int{1, 4}
	}
	rng := rand.New(rand.NewSource(20260))
	for i := 0; i < instances; i++ {
		ai := generateAdversarialInstance(rng, "multiple")
		ai.strategy = "colluding-liar"
		ai.trust = true
		t.Run(fmt.Sprintf("%02d-r%v", i, ai.rate), func(t *testing.T) {
			freshCell := func() (*dataset.Dataset, *Platform, *ResponseLog) {
				d := dataset.MustFromCounts(ai.schema, ai.counts,
					rand.New(rand.NewSource(ai.platformSeed+1)))
				log := &ResponseLog{}
				return d, adversarialPlatformFor(t, ai, d, log), log
			}

			d, pA, logA := freshCell()
			baseJnl := &memoryJournal{}
			base, _, err := runTrustJournalCell(t, ai, 1, d, pA, logA, baseJnl, nil,
				context.Background())
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			rounds := len(baseJnl.recs)
			if rounds < 2 {
				t.Fatalf("degenerate instance: only %d committed rounds", rounds)
			}
			kill := rounds / 2

			for _, par := range pars {
				par := par
				t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
					dB, pB, logB := freshCell()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					jnl := &memoryJournal{}
					killer := &cancelAfterJournal{inner: jnl, after: kill, cancel: cancel}
					_, _, err := runTrustJournalCell(t, ai, par, dB, pB, logB, killer, nil, ctx)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("killed run: err = %v, want context.Canceled", err)
					}
					if len(jnl.recs) != kill {
						t.Fatalf("killed run journaled %d rounds, want exactly %d", len(jnl.recs), kill)
					}

					replay := append([]core.RoundRecord(nil), jnl.recs...)
					resumed, jo, err := runTrustJournalCell(t, ai, par, dB, pB, logB, jnl, replay,
						context.Background())
					if err != nil {
						t.Fatalf("resumed run: %v", err)
					}
					if got := jo.Replayed(); got != kill {
						t.Fatalf("resumed run replayed %d rounds, want %d", got, kill)
					}
					if resumed != base {
						t.Fatalf("resumed state diverged from uninterrupted run:\n--- resumed (P=%d, killed at %d/%d) ---\n%s\n--- uninterrupted ---\n%s",
							par, kill, rounds, resumed, base)
					}
					if !reflect.DeepEqual(jnl.recs, baseJnl.recs) {
						t.Fatal("journal record sequences diverged from the uninterrupted run")
					}
				})
			}
		})
	}
}

// TestKillResumeMatrixCoversOutcomes guards the matrix generator: the
// drawn instances must include every audit kind and both budget
// configurations, and at least one budgeted baseline must actually
// record a non-clean round outcome over the suite's lifetime would be
// ideal — here we assert the cheap structural half (kinds x budgets),
// keeping the expensive property in the matrix itself.
func TestKillResumeMatrixCoversOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(20240))
	kinds := map[string]int{}
	budgets := map[bool]int{}
	for i := 0; i < 12; i++ {
		inst := generateInstance(rng, conformanceKind(i))
		kinds[inst.kind]++
		budgets[(i/3)%2 == 1]++
	}
	for _, kind := range []string{"multiple", "intersectional", "classifier"} {
		if kinds[kind] < 2 {
			t.Errorf("only %d %s instances in the kill/resume matrix", kinds[kind], kind)
		}
	}
	if budgets[true] < 4 || budgets[false] < 4 {
		t.Errorf("budget coverage too thin: budgeted=%d unbudgeted=%d", budgets[true], budgets[false])
	}
}
