package core

import (
	"math/rand"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// chaoticOracle answers every query at random: the worst possible
// crowd, with answers that need not even be self-consistent (a parent
// set can say "no members" while its child says "one"). The
// algorithms cannot be correct against it — but they must terminate,
// stay within their structural task bounds, and never panic, because
// real majority votes occasionally produce exactly such
// inconsistencies.
type chaoticOracle struct {
	schema *pattern.Schema
	rng    *rand.Rand
	calls  int
}

func (c *chaoticOracle) SetQuery([]dataset.ObjectID, pattern.Group) (bool, error) {
	c.calls++
	return c.rng.Intn(2) == 0, nil
}

func (c *chaoticOracle) ReverseSetQuery([]dataset.ObjectID, pattern.Group) (bool, error) {
	c.calls++
	return c.rng.Intn(2) == 0, nil
}

func (c *chaoticOracle) PointQuery(dataset.ObjectID) ([]int, error) {
	c.calls++
	labels := make([]int, c.schema.NumAttrs())
	for i := range labels {
		labels[i] = c.rng.Intn(c.schema.Attr(i).Cardinality())
	}
	return labels, nil
}

func TestGroupCoverageTerminatesUnderChaos(t *testing.T) {
	s := dataset.GenderSchema()
	g := pattern.GroupOf("female", pattern.MustPattern(s, 1))
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(800)
		setSize := 1 + rng.Intn(64)
		tau := 1 + rng.Intn(60)
		ids := make([]dataset.ObjectID, n)
		for i := range ids {
			ids[i] = dataset.ObjectID(i)
		}
		o := &chaoticOracle{schema: s, rng: rng}
		res, err := GroupCoverage(o, ids, setSize, tau, g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Structural bound: even chaotic answers cannot force more
		// queries than the full binary forest holds (2N-1 nodes per
		// tree worth of splits plus roots).
		if res.Tasks > 2*n+LowerBoundTasks(n, setSize) {
			t.Fatalf("seed %d: %d tasks on N=%d — runaway", seed, res.Tasks, n)
		}
	}
}

func TestPartitionCleanTerminatesUnderChaos(t *testing.T) {
	s := dataset.GenderSchema()
	g := pattern.GroupOf("female", pattern.MustPattern(s, 1))
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		ids := make([]dataset.ObjectID, n)
		for i := range ids {
			ids[i] = dataset.ObjectID(i)
		}
		o := &chaoticOracle{schema: s, rng: rng}
		confirmed, _, tasks, err := partitionWalk(o, false, 1, ids, 1+rng.Intn(32), n+1, g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if confirmed < 0 || confirmed > n {
			t.Fatalf("seed %d: confirmed %d out of range", seed, confirmed)
		}
		if tasks > 3*n+10 {
			t.Fatalf("seed %d: %d tasks on N=%d — runaway", seed, tasks, n)
		}
	}
}

func TestMultipleCoverageTerminatesUnderChaos(t *testing.T) {
	s := pattern.MustSchema(pattern.Attribute{
		Name: "race", Values: []string{"w", "b", "h", "a"},
	})
	groups := pattern.GroupsForAttribute(s, 0)
	for seed := int64(200); seed < 210; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		ids := make([]dataset.ObjectID, n)
		for i := range ids {
			ids[i] = dataset.ObjectID(i)
		}
		o := &chaoticOracle{schema: s, rng: rng}
		if _, err := MultipleCoverage(o, ids, 25, 20, groups, MultipleOptions{Rng: rng}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestIntersectionalCoverageTerminatesUnderChaos(t *testing.T) {
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
	)
	for seed := int64(300); seed < 308; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		ids := make([]dataset.ObjectID, n)
		for i := range ids {
			ids[i] = dataset.ObjectID(i)
		}
		o := &chaoticOracle{schema: s, rng: rng}
		res, err := IntersectionalCoverage(o, ids, 20, 15, s, MultipleOptions{Rng: rng})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Whatever the chaos said, every pattern must carry a definite
		// verdict (resolution passes leave no Unknown).
		for key, v := range res.Verdicts {
			if v.Coverage == pattern.Unknown {
				t.Fatalf("seed %d: pattern %s left unknown", seed, key)
			}
		}
	}
}

func TestClassifierCoverageTerminatesUnderChaos(t *testing.T) {
	s := dataset.GenderSchema()
	g := pattern.GroupOf("female", pattern.MustPattern(s, 1))
	for seed := int64(400); seed < 410; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		ids := make([]dataset.ObjectID, n)
		for i := range ids {
			ids[i] = dataset.ObjectID(i)
		}
		predicted := ids[:rng.Intn(len(ids)/2+1)]
		o := &chaoticOracle{schema: s, rng: rng}
		if _, err := ClassifierCoverage(o, ids, predicted, 20, 15, g,
			ClassifierOptions{Rng: rng}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
