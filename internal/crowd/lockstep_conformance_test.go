package crowd

// The cross-parallelism conformance matrix for the lockstep engine:
// the FULL crowd-simulator pipeline — glyph-perceiving workers drawn
// from the platform RNG, pre-task qualification tests and rating-based
// worker screening, redundant assignments, majority or
// reliability-weighted aggregation, a pricing model (fixed, per-image,
// posted-price or sealed-bid bidding), the cost ledger, and Dawid-Skene
// truth inference over the raw assignment log — must be bit-for-bit
// identical at every engine Parallelism value when the audit runs on
// the lockstep engine, whether Lockstep is set or left unset at
// Parallelism > 1. The matrix spans all three audit algorithms that
// batch their rounds: Multiple-, Intersectional- and
// Classifier-Coverage. Instances are generated testing/quick-style
// from a seeded RNG; the whole suite also runs under -race in CI, so
// the determinism claim is checked on genuinely concurrent schedules.

import (
	"fmt"
	"math/rand"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// conformanceInstance is one randomized pipeline configuration.
type conformanceInstance struct {
	counts        []int
	schema        *pattern.Schema
	kind          string // "multiple", "intersectional" or "classifier"
	tau, setSize  int
	assignments   int
	poolSize      int
	weightedVote  bool
	qualification bool
	rating        bool
	pricing       int // 0 fixed, 1 size, 2 posted, 3 bidding
	// classifierTP and classifierFP shape the predicted-positive set
	// of a classifier cell (clamped to the dataset's composition).
	classifierTP, classifierFP int
	platformSeed               int64
	auditSeed                  int64
}

// generateInstance draws one instance; every knob of the pipeline is
// randomized — including the worker-screening filters and the pricing
// model — so the matrix covers the configuration space instead of one
// hand-picked deployment.
func generateInstance(rng *rand.Rand, kind string) conformanceInstance {
	inst := conformanceInstance{
		kind:          kind,
		tau:           5 + rng.Intn(12),
		setSize:       5 + rng.Intn(12),
		assignments:   1 + 2*rng.Intn(2), // 1 or 3
		poolSize:      8 + rng.Intn(12),
		weightedVote:  rng.Intn(2) == 0,
		qualification: rng.Intn(2) == 0,
		rating:        rng.Intn(2) == 0,
		pricing:       rng.Intn(4),
		platformSeed:  rng.Int63(),
		auditSeed:     rng.Int63(),
	}
	if inst.qualification || inst.rating {
		// Screening excludes part of the pool (the rating filter about
		// half of it); a larger pool keeps every drawn deployment
		// viable.
		inst.poolSize = 16 + rng.Intn(12)
	}
	if kind == "intersectional" {
		inst.schema = pattern.MustSchema(
			pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
			pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
		)
		inst.counts = []int{40 + rng.Intn(60), rng.Intn(12), 20 + rng.Intn(40), rng.Intn(12)}
	} else {
		inst.schema = pattern.MustSchema(
			pattern.Attribute{Name: "group", Values: []string{"g0", "g1", "g2"}},
		)
		inst.counts = []int{60 + rng.Intn(80), rng.Intn(15), rng.Intn(15)}
	}
	if kind == "classifier" {
		// Predict subgroup g1; make it populated enough that both
		// elimination strategies and the residual hunt occur across
		// the matrix.
		inst.counts[1] = 3 + rng.Intn(12)
		inst.classifierTP = rng.Intn(inst.counts[1] + 1)
		inst.classifierFP = rng.Intn(25)
	}
	return inst
}

// conformanceConfig renders one instance's platform configuration; the
// adversarial matrix reuses it and layers an AdversaryConfig on top.
func conformanceConfig(inst conformanceInstance, log *ResponseLog) Config {
	cfg := DefaultConfig(inst.platformSeed)
	cfg.Assignments = inst.assignments
	cfg.Profile = DefaultProfile(inst.poolSize)
	cfg.Responses = log
	if inst.weightedVote {
		cfg.Aggregator = NewWeightedVote(0.9)
	}
	if inst.qualification {
		cfg.Qualification = DefaultQualification()
	}
	if inst.rating {
		cfg.Rating = DefaultRating()
	}
	switch inst.pricing {
	case 1:
		cfg.Pricing = SizePricing{Base: 0.05, PerImage: 0.002}
	case 2:
		cfg.Pricing = PostedPricing{Posted: 0.08, ReservationMean: 0.05}
	case 3:
		cfg.Pricing = BiddingPricing{Min: 0.04, Max: 0.14, Bidders: 12, Winners: inst.assignments}
	}
	return cfg
}

// platformFor builds a fresh identically-configured platform for one
// parallelism cell; the aggregator is rebuilt too, because
// WeightedVote carries per-worker reliability state across HITs (the
// very order-dependence lockstep must tame).
func platformFor(t *testing.T, inst conformanceInstance, d *dataset.Dataset, log *ResponseLog) *Platform {
	t.Helper()
	p, err := NewPlatform(d, conformanceConfig(inst, log))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runConformanceCell executes one (instance, parallelism, Lockstep)
// cell and serializes everything observable: the audit result, the
// task counts, the ledger (spend), the HIT transcript length, and the
// Dawid-Skene estimate over the raw assignment log. With Lockstep
// unset, Parallelism > 1 alone selects the lockstep engine.
func runConformanceCell(t *testing.T, inst conformanceInstance, parallelism int, lockstep bool) string {
	t.Helper()
	d := dataset.MustFromCounts(inst.schema, inst.counts, rand.New(rand.NewSource(inst.platformSeed+1)))
	log := &ResponseLog{}
	p := platformFor(t, inst, d, log)
	opts := core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(inst.auditSeed)),
		Parallelism: parallelism,
		Lockstep:    lockstep,
	}
	var audit string
	switch inst.kind {
	case "intersectional":
		res, err := core.IntersectionalCoverage(p, d.IDs(), inst.setSize, inst.tau, inst.schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		audit = fmt.Sprintf("%+v|%+v|%d|%d", res.Verdicts, res.MUPs, res.ResolutionTasks, res.Tasks)
	case "classifier":
		g := pattern.GroupsForAttribute(inst.schema, 0)[1]
		predicted := d.PredictedSet(g, inst.classifierTP, inst.classifierFP)
		res, err := core.ClassifierCoverage(p, d.IDs(), predicted, inst.setSize, inst.tau, g,
			core.ClassifierOptions{
				Rng:         rand.New(rand.NewSource(inst.auditSeed)),
				Parallelism: parallelism,
				Lockstep:    lockstep,
			})
		if err != nil {
			t.Fatal(err)
		}
		audit = fmt.Sprintf("%+v", res)
	default:
		groups := pattern.GroupsForAttribute(inst.schema, 0)
		res, err := core.MultipleCoverage(p, d.IDs(), inst.setSize, inst.tau, groups, opts)
		if err != nil {
			t.Fatal(err)
		}
		audit = fmt.Sprintf("%+v|%+v|%d|%d|%d", res.Results, res.SuperAudits,
			res.SampleTasks, res.AuditTasks, res.Tasks)
	}

	// Spend: the full ledger snapshot, dollar amounts included.
	spend := p.Ledger().Snapshot().String()

	// Truth inference over the raw transcript: identical logs must
	// yield identical Dawid-Skene truths and worker accuracies.
	ds := "no-hits"
	if log.HITs() > 0 {
		res, err := DawidSkene(log.HITs(), p.PoolSize(), 2, log.Responses(), 25)
		if err != nil {
			t.Fatal(err)
		}
		ds = fmt.Sprintf("%v|%.9v|%d", res.Truth, res.WorkerAccuracy, res.Iterations)
	}
	return fmt.Sprintf("audit=%s\nspend=%s\neligible=%d\nhits=%d\ndawid-skene=%s",
		audit, spend, p.EligibleWorkers(), log.HITs(), ds)
}

// conformanceKind cycles the matrix through the three batched audit
// algorithms.
func conformanceKind(i int) string {
	switch i % 4 {
	case 2:
		return "intersectional"
	case 3:
		return "classifier"
	default:
		return "multiple"
	}
}

// TestLockstepCrossParallelismConformance is the conformance matrix:
// >= 50 randomized crowd-pipeline instances — worker screening
// (qualification test, rating filter) and all four pricing models
// included — each run at P in {1, 2, 4, 16} with Lockstep set, and at
// P in {2, 4, 16} with it unset, asserting byte-identical verdicts,
// task counts, spend, and truth-inference output.
func TestLockstepCrossParallelismConformance(t *testing.T) {
	instances := 50
	if testing.Short() {
		instances = 12
	}
	rng := rand.New(rand.NewSource(20240))
	for i := 0; i < instances; i++ {
		inst := generateInstance(rng, conformanceKind(i))
		t.Run(fmt.Sprintf("%02d-%s", i, inst.kind), func(t *testing.T) {
			var base string
			for _, par := range []int{1, 2, 4, 16} {
				got := runConformanceCell(t, inst, par, true)
				if par == 1 {
					base = got
					continue
				}
				if got != base {
					t.Fatalf("parallelism %d diverged from parallelism 1:\n--- P=%d ---\n%s\n--- P=1 ---\n%s\n(instance %+v)",
						par, par, got, base, inst)
				}
				if got := runConformanceCell(t, inst, par, false); got != base {
					t.Fatalf("parallelism %d with Lockstep unset diverged from Lockstep set:\n--- unset ---\n%s\n--- set, P=1 ---\n%s\n(instance %+v)",
						par, got, base, inst)
				}
			}
		})
	}
}

// TestConformanceMatrixCoversScreeningAndBidding guards the generator:
// the drawn matrix must actually exercise the qualification test, the
// rating filter, the bidding pricing model and every audit kind —
// otherwise the conformance claim silently narrows.
func TestConformanceMatrixCoversScreeningAndBidding(t *testing.T) {
	rng := rand.New(rand.NewSource(20240))
	var quals, ratings, bidding int
	kinds := map[string]int{}
	for i := 0; i < 50; i++ {
		inst := generateInstance(rng, conformanceKind(i))
		if inst.qualification {
			quals++
		}
		if inst.rating {
			ratings++
		}
		if inst.pricing == 3 {
			bidding++
		}
		kinds[inst.kind]++
	}
	if quals < 10 || ratings < 10 || bidding < 5 {
		t.Errorf("matrix coverage too thin: qualification=%d rating=%d bidding=%d", quals, ratings, bidding)
	}
	for _, kind := range []string{"multiple", "intersectional", "classifier"} {
		if kinds[kind] < 10 {
			t.Errorf("only %d %s instances in the matrix", kinds[kind], kind)
		}
	}
}

// TestLockstepCrowdAuditReproducesItself: repeating an identical
// crowd audit on the lockstep engine reproduces it byte-for-byte —
// the platform RNG, consumed per HIT in canonical commit order, never
// sees a scheduling-dependent query sequence.
func TestLockstepCrowdAuditReproducesItself(t *testing.T) {
	rng := rand.New(rand.NewSource(20241))
	for _, kind := range []string{"multiple", "classifier"} {
		inst := generateInstance(rng, kind)
		first := runConformanceCell(t, inst, 4, true)
		for rep := 0; rep < 3; rep++ {
			if got := runConformanceCell(t, inst, 4, true); got != first {
				t.Fatalf("%s rep %d: identical lockstep run diverged:\n%s\nvs\n%s", kind, rep, got, first)
			}
		}
	}
}
