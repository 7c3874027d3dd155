package core

import (
	"context"
	"math/rand"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// raceSchema has one attribute with four values; value 0 is the
// majority in most tests.
func raceSchema() *pattern.Schema {
	return pattern.MustSchema(pattern.Attribute{
		Name:   "race",
		Values: []string{"white", "black", "hispanic", "asian"},
	})
}

// sequentialEngine is the engine of a sequential audit over o.
func sequentialEngine(o Oracle) *engine {
	return newEngine(context.Background(), o, false, 1)
}

func TestLabelSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d, _ := dataset.BinaryWithMinority(100, 20, rng)
	e := sequentialEngine(NewTruthOracle(d))
	l := NewLabeledSet()
	remaining, tasks, err := labelSamples(e, d.IDs(), 30, l, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tasks != 30 || l.Len() != 30 || len(remaining) != 70 {
		t.Errorf("tasks=%d |L|=%d remaining=%d", tasks, l.Len(), len(remaining))
	}
	// Labeled and remaining must partition the ids.
	for _, id := range remaining {
		if l.Has(id) {
			t.Fatalf("id %d both labeled and remaining", id)
		}
	}
	// Labels must be ground truth (perfect oracle).
	total := l.Count(dataset.Female(d.Schema()))
	want := 0
	for i := 0; i < d.Size(); i++ {
		o := d.At(i)
		if o.Labels[0] == 1 && l.Has(o.ID) {
			want++
		}
	}
	if total != want {
		t.Errorf("labeled female count = %d, want %d", total, want)
	}
}

func TestLabelSamplesClampsAndValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d, _ := dataset.BinaryWithMinority(10, 2, rng)
	e := sequentialEngine(NewTruthOracle(d))
	l := NewLabeledSet()
	remaining, tasks, err := labelSamples(e, d.IDs(), 500, l, rng)
	if err != nil || tasks != 10 || len(remaining) != 0 {
		t.Errorf("clamp: tasks=%d remaining=%d err=%v", tasks, len(remaining), err)
	}
	if _, _, err := labelSamples(e, d.IDs(), -1, l, rng); err == nil {
		t.Error("negative k: want error")
	}
	// The sampling phase's one caller guards the oracle.
	if _, err := MultipleCoverage(nil, d.IDs(), 1, 1, pattern.GroupsForAttribute(d.Schema(), 0), MultipleOptions{Rng: rng}); err == nil {
		t.Error("nil oracle: want error")
	}
	if _, _, err := labelSamples(e, d.IDs(), 1, nil, rng); err == nil {
		t.Error("nil labeled set: want error")
	}
	if _, _, err := labelSamples(e, d.IDs(), 1, l, nil); err == nil {
		t.Error("nil rng: want error")
	}
}

func TestExpectedCount(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	l := NewLabeledSet()
	g := female(d)
	if got := ExpectedCount(l, 100, g); got != 0 {
		t.Errorf("empty L expected = %f", got)
	}
	l.Add(0, []int{0})
	l.Add(1, []int{1})
	l.Add(2, []int{1})
	l.Add(3, []int{0})
	if got := ExpectedCount(l, 100, g); got != 50 {
		t.Errorf("expected = %f, want 50", got)
	}
}

func TestAggregateMergesMinorities(t *testing.T) {
	// Sample: 40 white, 4 black, 3 hispanic, 3 asian out of N=100,
	// tau=30. Expected counts: 80, 8, 6, 6. The three minorities merge
	// (6+6+8=20 < 30) and white stands alone.
	s := raceSchema()
	l := NewLabeledSet()
	id := dataset.ObjectID(0)
	add := func(v, n int) {
		for i := 0; i < n; i++ {
			l.Add(id, []int{v})
			id++
		}
	}
	add(0, 40)
	add(1, 4)
	add(2, 3)
	add(3, 3)
	groups := pattern.GroupsForAttribute(s, 0)
	supers := Aggregate(l, 100, 30, groups, false)
	if len(supers) != 2 {
		t.Fatalf("supers = %v, want 2", supers)
	}
	if len(supers[0]) != 3 {
		t.Errorf("first super = %v, want the 3 minorities", supers[0])
	}
	if len(supers[1]) != 1 || supers[1][0] != 0 {
		t.Errorf("second super = %v, want [white]", supers[1])
	}
}

func TestAggregateEmptySampleMergesEverythingBelowTau(t *testing.T) {
	s := raceSchema()
	groups := pattern.GroupsForAttribute(s, 0)
	supers := Aggregate(NewLabeledSet(), 100, 30, groups, false)
	if len(supers) != 1 || len(supers[0]) != 4 {
		t.Errorf("empty sample should merge all: %v", supers)
	}
}

func TestAggregatePartitionProperty(t *testing.T) {
	// Property: the output always partitions the input indices, and
	// every non-singleton super-group has expected sum < tau.
	s := raceSchema()
	groups := pattern.GroupsForAttribute(s, 0)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		l := NewLabeledSet()
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			l.Add(dataset.ObjectID(i), []int{rng.Intn(4)})
		}
		N := n * (1 + rng.Intn(10))
		tau := 1 + rng.Intn(60)
		supers := Aggregate(l, N, tau, groups, false)
		seen := map[int]bool{}
		for _, members := range supers {
			if len(members) == 0 {
				t.Fatal("empty super-group")
			}
			sum := 0.0
			for _, gi := range members {
				if seen[gi] {
					t.Fatalf("group %d in two super-groups", gi)
				}
				seen[gi] = true
				sum += ExpectedCount(l, N, groups[gi])
			}
			if len(members) > 1 && sum >= float64(tau) {
				t.Fatalf("super-group %v expected sum %.1f >= tau %d", members, sum, tau)
			}
		}
		if len(seen) != len(groups) {
			t.Fatalf("partition covers %d of %d groups", len(seen), len(groups))
		}
	}
}

func TestAggregateMultiRequiresSharedParent(t *testing.T) {
	// gender x race, all subgroups tiny: without the multi rule they
	// would all merge; with it, merged patterns must pairwise share a
	// parent (differ in exactly one attribute).
	s := pattern.MustSchema(
		pattern.Attribute{Name: "gender", Values: []string{"m", "f"}},
		pattern.Attribute{Name: "race", Values: []string{"w", "b", "h", "a"}},
	)
	groups := pattern.SubgroupGroups(s)
	l := NewLabeledSet()
	supers := Aggregate(l, 1000, 50, groups, true)
	for _, members := range supers {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if !shareParent(groups[members[i]], groups[members[j]]) {
					t.Fatalf("super-group %v contains non-siblings %v and %v",
						members, groups[members[i]], groups[members[j]])
				}
			}
		}
	}
}

func TestShareParent(t *testing.T) {
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
	)
	g := func(p pattern.Pattern) pattern.Group { return pattern.GroupOf("", p) }
	if !shareParent(g(pattern.MustPattern(s, 0, 0)), g(pattern.MustPattern(s, 0, 1))) {
		t.Error("siblings must share a parent")
	}
	if shareParent(g(pattern.MustPattern(s, 0, 0)), g(pattern.MustPattern(s, 1, 1))) {
		t.Error("diagonal patterns share no parent")
	}
	if shareParent(g(pattern.MustPattern(s, 0, 0)), g(pattern.MustPattern(s, 0, 0))) {
		t.Error("a pattern is not its own sibling")
	}
	if shareParent(g(pattern.MustPattern(s, 0, pattern.Wildcard)), g(pattern.MustPattern(s, 0, 0))) {
		t.Error("non-fully-specified patterns never merge")
	}
	super := pattern.SuperGroup(g(pattern.MustPattern(s, 0, 0)), g(pattern.MustPattern(s, 0, 1)))
	if shareParent(super, g(pattern.MustPattern(s, 1, 0))) {
		t.Error("multi-member groups never merge")
	}
}

func TestMultipleCoverageMatchesGroundTruth(t *testing.T) {
	// Randomized end-to-end: verdict per group always matches ground
	// truth counts.
	s := raceSchema()
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		counts := []int{
			200 + rng.Intn(400),
			rng.Intn(120),
			rng.Intn(120),
			rng.Intn(120),
		}
		tau := 1 + rng.Intn(60)
		d := dataset.MustFromCounts(s, counts, rng)
		o := NewTruthOracle(d)
		groups := pattern.GroupsForAttribute(s, 0)
		res, err := MultipleCoverage(o, d.IDs(), 50, tau, groups, MultipleOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		for gi, r := range res.Results {
			want := counts[gi] >= tau
			if r.Covered != want {
				t.Fatalf("trial %d group %d (count=%d tau=%d): covered=%v want %v",
					trial, gi, counts[gi], tau, r.Covered, want)
			}
			if r.CountLo > counts[gi] || r.CountHi < counts[gi] {
				t.Fatalf("trial %d group %d: bounds [%d,%d] exclude true count %d",
					trial, gi, r.CountLo, r.CountHi, counts[gi])
			}
			if r.Exact && r.CountLo != counts[gi] {
				t.Fatalf("trial %d group %d: exact count %d != true %d",
					trial, gi, r.CountLo, counts[gi])
			}
		}
		if res.Tasks != res.SampleTasks+res.AuditTasks {
			t.Fatalf("task breakdown inconsistent: %+v", res)
		}
	}
}

func TestMultipleCoverageEffectiveCaseSavesTasks(t *testing.T) {
	// "effective 1" of Table 3: three uncovered minorities whose
	// super-group stays uncovered. Multiple-Coverage should audit them
	// jointly and beat the brute-force per-group Group-Coverage runs.
	s := raceSchema()
	rng := rand.New(rand.NewSource(45))
	counts := []int{9800, 10, 8, 6} // tau 50: all three minorities uncovered, sum 24 < 50
	d := dataset.MustFromCounts(s, counts, rng)
	groups := pattern.GroupsForAttribute(s, 0)

	o := NewTruthOracle(d)
	res, err := MultipleCoverage(o, d.IDs(), 50, 50, groups, MultipleOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}

	brute := 0
	for _, g := range groups {
		ob := NewTruthOracle(d)
		r, err := GroupCoverage(ob, d.IDs(), 50, 50, g)
		if err != nil {
			t.Fatal(err)
		}
		brute += r.Tasks
	}
	if res.Tasks >= brute {
		t.Errorf("Multiple-Coverage %d tasks, brute force %d: aggregation should win", res.Tasks, brute)
	}
	// The three minorities must come back uncovered with a shared
	// super audit.
	for gi := 1; gi <= 3; gi++ {
		if res.Results[gi].Covered {
			t.Errorf("minority %d reported covered", gi)
		}
	}
}

func TestMultipleCoverageValidation(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	o := NewTruthOracle(d)
	groups := pattern.GroupsForAttribute(d.Schema(), 0)
	rng := rand.New(rand.NewSource(1))
	if _, err := MultipleCoverage(nil, d.IDs(), 1, 1, groups, MultipleOptions{Rng: rng}); err == nil {
		t.Error("nil oracle: want error")
	}
	if _, err := MultipleCoverage(o, d.IDs(), 1, 1, nil, MultipleOptions{Rng: rng}); err == nil {
		t.Error("no groups: want error")
	}
	if _, err := MultipleCoverage(o, d.IDs(), 1, 1, groups, MultipleOptions{}); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := MultipleCoverage(o, d.IDs(), 0, 1, groups, MultipleOptions{Rng: rng}); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := MultipleCoverage(o, d.IDs(), 1, 1, groups, MultipleOptions{Rng: rng, SampleFactor: -1}); err == nil {
		t.Error("negative c: want error")
	}
}

func TestMultipleCoverageSamplesSettleMajority(t *testing.T) {
	// With c*tau samples and a dominant majority, the majority group's
	// audit should need zero or near-zero additional set queries: the
	// samples alone push tau' to <= 0 or the first few roots finish it.
	s := raceSchema()
	rng := rand.New(rand.NewSource(46))
	d := dataset.MustFromCounts(s, []int{5000, 10, 10, 10}, rng)
	o := NewTruthOracle(d)
	groups := pattern.GroupsForAttribute(s, 0)
	res, err := MultipleCoverage(o, d.IDs(), 50, 50, groups, MultipleOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Results[0].Covered {
		t.Fatal("majority must be covered")
	}
	if res.SampleTasks != 100 {
		t.Errorf("sample tasks = %d, want c*tau = 100", res.SampleTasks)
	}
}

func TestMultipleCoveragePropagatesErrors(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 0, 1})
	groups := pattern.GroupsForAttribute(d.Schema(), 0)
	rng := rand.New(rand.NewSource(2))
	flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 2}
	if _, err := MultipleCoverage(flaky, d.IDs(), 2, 2, groups, MultipleOptions{Rng: rng}); err == nil {
		t.Error("want propagated transient error")
	}
}

// pattern4Groups returns the per-value groups of the race schema, a
// shared helper for aggregation and ablation tests.
func pattern4Groups(s *pattern.Schema) []pattern.Group {
	return pattern.GroupsForAttribute(s, 0)
}
