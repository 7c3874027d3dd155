package crowd

// The adversarial axis of the conformance matrix: the same full crowd
// pipeline, but with a deterministic stripe of the worker pool answering
// through an adversarial strategy (lazy always-yes, random spam,
// colluding liar) and — on half the cells — a core.TrustOracle stacked
// above the platform, interleaving gold probes and screening distrusted
// workers out of future assignment draws. Everything observable —
// verdicts, task tallies, ledger spend, transcript, Dawid-Skene truth
// inference AND the trust report — must stay byte-identical at every
// engine Parallelism value under lockstep, and a zero-rate adversary
// config must be a byte-for-byte no-op against the honest matrix.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// adversarialInstance extends a conformance instance with the adversary
// axis. The embedded instance is drawn FIRST, so the base pipeline's
// RNG transcript is frozen: an adversarial instance differs from its
// honest twin only in the strategy overlay, never in the drawn knobs.
type adversarialInstance struct {
	conformanceInstance
	rate     float64
	strategy string
	trust    bool
}

// generateAdversarialInstance draws the base instance, then the
// adversary axis from the SAME rng (extra draws strictly after the base
// generation, preserving generateInstance's draw sequence).
func generateAdversarialInstance(rng *rand.Rand, kind string) adversarialInstance {
	ai := adversarialInstance{conformanceInstance: generateInstance(rng, kind)}
	ai.rate = []float64{0.25, 0.5}[rng.Intn(2)]
	ai.strategy = []string{"lazy-yes", "random-spam", "colluding-liar"}[rng.Intn(3)]
	ai.trust = rng.Intn(2) == 0
	return ai
}

// adversarialPlatformFor is platformFor with the adversary overlay.
func adversarialPlatformFor(t *testing.T, ai adversarialInstance, d *dataset.Dataset, log *ResponseLog) *Platform {
	t.Helper()
	cfg := conformanceConfig(ai.conformanceInstance, log)
	strat, err := StrategyByName(ai.strategy)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversary = AdversaryConfig{Rate: ai.rate, Strategy: strat}
	p, err := NewPlatform(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// trustProbesFor derives the cell's gold-probe battery from ground
// truth — a pure function of the instance, identical across
// parallelism levels.
func trustProbesFor(d *dataset.Dataset, ai adversarialInstance) []core.GoldProbe {
	groups := pattern.GroupsForAttribute(ai.schema, 0)
	return core.GoldProbes(d, groups, 6, ai.auditSeed+13)
}

// runAdversarialCell executes one (instance, parallelism) cell and
// serializes runConformanceCell's observable state plus the trust
// report.
func runAdversarialCell(t *testing.T, ai adversarialInstance, parallelism int) string {
	t.Helper()
	d := dataset.MustFromCounts(ai.schema, ai.counts, rand.New(rand.NewSource(ai.platformSeed+1)))
	log := &ResponseLog{}
	p := adversarialPlatformFor(t, ai, d, log)

	var sc core.StackConfig
	if ai.trust {
		sc.Trust = &core.TrustConfig{Probes: trustProbesFor(d, ai), Feed: log, Screen: p}
	}
	st, err := core.NewStack(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	oracle, tr := st.Top, st.Trust

	opts := core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(ai.auditSeed)),
		Parallelism: parallelism,
		Lockstep:    true,
	}
	var audit string
	switch ai.kind {
	case "intersectional":
		res, err := core.IntersectionalCoverage(oracle, d.IDs(), ai.setSize, ai.tau, ai.schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		audit = fmt.Sprintf("%+v|%+v|%d|%d", res.Verdicts, res.MUPs, res.ResolutionTasks, res.Tasks)
	case "classifier":
		g := pattern.GroupsForAttribute(ai.schema, 0)[1]
		predicted := d.PredictedSet(g, ai.classifierTP, ai.classifierFP)
		res, err := core.ClassifierCoverage(oracle, d.IDs(), predicted, ai.setSize, ai.tau, g,
			core.ClassifierOptions{
				Rng:         rand.New(rand.NewSource(ai.auditSeed)),
				Parallelism: parallelism,
				Lockstep:    true,
			})
		if err != nil {
			t.Fatal(err)
		}
		audit = fmt.Sprintf("%+v", res)
	default:
		groups := pattern.GroupsForAttribute(ai.schema, 0)
		res, err := core.MultipleCoverage(oracle, d.IDs(), ai.setSize, ai.tau, groups, opts)
		if err != nil {
			t.Fatal(err)
		}
		audit = fmt.Sprintf("%+v|%+v|%d|%d|%d", res.Results, res.SuperAudits,
			res.SampleTasks, res.AuditTasks, res.Tasks)
	}

	spend := p.Ledger().Snapshot().String()
	ds := "no-hits"
	if log.HITs() > 0 {
		res, err := DawidSkene(log.HITs(), p.PoolSize(), 2, log.Responses(), 25)
		if err != nil {
			t.Fatal(err)
		}
		ds = fmt.Sprintf("%v|%.9v|%d", res.Truth, res.WorkerAccuracy, res.Iterations)
	}
	trust := "no-trust"
	if tr != nil {
		trust = fmt.Sprintf("%+v", tr.Report())
	}
	return fmt.Sprintf("audit=%s\nspend=%s\neligible=%d\nhits=%d\ndawid-skene=%s\ntrust=%s",
		audit, spend, p.EligibleWorkers(), log.HITs(), ds, trust)
}

// TestAdversarialCrossParallelismConformance is the adversary axis of
// the conformance matrix: randomized pipeline instances with an
// adversarial worker stripe, half of them under an active TrustOracle,
// each run at P in {1, 2, 4, 16} under lockstep, asserting
// byte-identical verdicts, spend, transcripts, truth inference and
// trust reports.
func TestAdversarialCrossParallelismConformance(t *testing.T) {
	instances := 18
	if testing.Short() {
		instances = 6
	}
	rng := rand.New(rand.NewSource(20248))
	for i := 0; i < instances; i++ {
		ai := generateAdversarialInstance(rng, conformanceKind(i))
		t.Run(fmt.Sprintf("%02d-%s-%s-r%v-trust=%v", i, ai.kind, ai.strategy, ai.rate, ai.trust), func(t *testing.T) {
			var base string
			for _, par := range []int{1, 2, 4, 16} {
				got := runAdversarialCell(t, ai, par)
				if par == 1 {
					base = got
					continue
				}
				if got != base {
					t.Fatalf("parallelism %d diverged from parallelism 1:\n--- P=%d ---\n%s\n--- P=1 ---\n%s\n(instance %+v)",
						par, par, got, base, ai)
				}
			}
		})
	}
}

// TestAdversarialMatrixCoverage guards the generator: every strategy,
// both rates, and both trust settings must actually occur, or the
// adversarial conformance claim silently narrows.
func TestAdversarialMatrixCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(20248))
	strategies := map[string]int{}
	rates := map[float64]int{}
	trust := map[bool]int{}
	for i := 0; i < 18; i++ {
		ai := generateAdversarialInstance(rng, conformanceKind(i))
		strategies[ai.strategy]++
		rates[ai.rate]++
		trust[ai.trust]++
	}
	for _, s := range []string{"lazy-yes", "random-spam", "colluding-liar"} {
		if strategies[s] < 2 {
			t.Errorf("only %d %s instances in the adversarial matrix", strategies[s], s)
		}
	}
	if rates[0.25] < 3 || rates[0.5] < 3 {
		t.Errorf("rate coverage too thin: %v", rates)
	}
	if trust[true] < 4 || trust[false] < 4 {
		t.Errorf("trust coverage too thin: %v", trust)
	}
}

// TestZeroRateAdversaryIsNoOp pins the frozen-RNG invariant at the
// matrix level: a cell with adversary rate 0 and no trust stack is
// byte-identical to the honest conformance cell for the same embedded
// instance.
func TestZeroRateAdversaryIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(20249))
	for i := 0; i < 4; i++ {
		ai := generateAdversarialInstance(rng, conformanceKind(i))
		ai.rate = 0
		ai.strategy = ""
		ai.trust = false
		honest := runConformanceCell(t, ai.conformanceInstance, 4, true)
		adv := runAdversarialCell(t, ai, 4)
		if adv != honest+"\ntrust=no-trust" {
			t.Fatalf("zero-rate adversary cell diverged from honest cell:\n--- adversary-config ---\n%s\n--- honest ---\n%s",
				adv, honest)
		}
	}
}

// TestAdversaryStripeDeterministic pins the RNG-free adversary
// assignment: the stripe marks floor(n*rate) workers at positions that
// depend only on (index, rate), never on any RNG.
func TestAdversaryStripeDeterministic(t *testing.T) {
	mkPool := func(n int) []*Worker {
		pool := make([]*Worker, n)
		for i := range pool {
			pool[i] = &Worker{ID: i}
		}
		return pool
	}
	marked := func(pool []*Worker) []int {
		var ids []int
		for _, w := range pool {
			if _, ok := w.Adversarial(); ok {
				ids = append(ids, w.ID)
			}
		}
		return ids
	}
	cases := []struct {
		n    int
		rate float64
		want int
	}{
		{8, 0.25, 2},
		{8, 0.5, 4},
		{10, 0.3, 3},
		{10, 0, 0},
		{10, 1, 10},
		{7, 0.5, 3},
	}
	for _, c := range cases {
		a := AdversaryConfig{Rate: c.rate, Strategy: LazyYes{}}
		poolA, poolB := mkPool(c.n), mkPool(c.n)
		a.assignAdversaries(poolA)
		a.assignAdversaries(poolB)
		if got := len(marked(poolA)); got != c.want {
			t.Errorf("n=%d rate=%v: marked %d workers, want %d", c.n, c.rate, got, c.want)
		}
		if fmt.Sprint(marked(poolA)) != fmt.Sprint(marked(poolB)) {
			t.Errorf("n=%d rate=%v: stripe not deterministic: %v vs %v",
				c.n, c.rate, marked(poolA), marked(poolB))
		}
	}
}

// TestTrustScreeningExcludesOnlyAdversaries is the semantic check on a
// colluding-liar cell: with a minority stripe of liars and a policy
// leaning on gold-probe evidence (the consensus can be corrupted by
// collusion, a gold answer cannot), every worker the middleware
// excludes must actually be adversarial, and with liars answering every
// gold probe wrong, at least one is.
func TestTrustScreeningExcludesOnlyAdversaries(t *testing.T) {
	rng := rand.New(rand.NewSource(20250))
	excludedSomewhere := false
	for i := 0; i < 6; i++ {
		ai := generateAdversarialInstance(rng, "multiple")
		ai.strategy = "colluding-liar"
		ai.rate = 0.25
		ai.trust = true
		ai.assignments = 3       // honest-majority consensus per HIT
		ai.qualification = false // keep the full stripe in the pool
		ai.rating = false

		d := dataset.MustFromCounts(ai.schema, ai.counts, rand.New(rand.NewSource(ai.platformSeed+1)))
		log := &ResponseLog{}
		p := adversarialPlatformFor(t, ai, d, log)
		tr, err := core.NewTrustOracle(p, core.TrustConfig{
			Policy: core.TrustPolicy{
				ProbeEvery:          1, // maximize gold evidence
				ContradictionWeight: 0.01,
				DistrustBelow:       -4,
			},
			Probes: trustProbesFor(d, ai),
			Feed:   log,
			Screen: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		groups := pattern.GroupsForAttribute(ai.schema, 0)
		if _, err := core.MultipleCoverage(tr, d.IDs(), ai.setSize, ai.tau, groups, core.MultipleOptions{
			Rng:      rand.New(rand.NewSource(ai.auditSeed)),
			Lockstep: true,
		}); err != nil {
			t.Fatal(err)
		}

		adversarial := map[int]bool{}
		for _, w := range p.Workers() {
			if _, ok := w.Adversarial(); ok {
				adversarial[w.ID] = true
			}
		}
		rep := tr.Report()
		for _, w := range rep.Workers {
			if w.Excluded {
				excludedSomewhere = true
				if !adversarial[w.Worker] {
					t.Errorf("instance %d: honest worker %d screened out (report %+v)", i, w.Worker, w)
				}
			}
		}
	}
	if !excludedSomewhere {
		t.Error("no colluding liar was ever excluded across 6 instances; screening is inert")
	}
}

// TestTrustReportSerializesScores guards the conformance serialization:
// the trust line must actually carry per-worker scores (a regression
// here would turn the adversarial matrix's trust comparison into a
// comparison of empty strings).
func TestTrustReportSerializesScores(t *testing.T) {
	rng := rand.New(rand.NewSource(20251))
	ai := generateAdversarialInstance(rng, "multiple")
	ai.trust = true
	cell := runAdversarialCell(t, ai, 2)
	if !strings.Contains(cell, "trust={") || !strings.Contains(cell, "ProbesIssued") {
		t.Fatalf("trust report missing from cell state:\n%s", cell)
	}
}
