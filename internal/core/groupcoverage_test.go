package core

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// binaryDataset builds a gender dataset with the given per-position
// composition: 1 marks a female (the audited minority group).
func binaryDataset(t *testing.T, bits []int) *dataset.Dataset {
	t.Helper()
	labels := make([][]int, len(bits))
	for i, b := range bits {
		labels[i] = []int{b}
	}
	return dataset.MustNew(dataset.GenderSchema(), labels)
}

func female(d *dataset.Dataset) pattern.Group { return dataset.Female(d.Schema()) }

func TestGroupCoveragePaperRunningExample(t *testing.T) {
	// Section 3.1 / Figure 4: sixteen images
	//   s s s s  m s s m  s s s s  m m s m     (m = minority group)
	// with tau = 3 and a single tree (n = 16). The paper's walkthrough
	// issues exactly seven queries before declaring the group covered.
	bits := []int{0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1}
	d := binaryDataset(t, bits)
	o := NewTruthOracle(d)
	res, err := GroupCoverage(o, d.IDs(), 16, 3, female(d))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Error("toy example must be covered")
	}
	if res.Count != 3 {
		t.Errorf("count = %d, want 3", res.Count)
	}
	if res.Tasks != 7 {
		t.Errorf("tasks = %d, want exactly 7 (paper running example)", res.Tasks)
	}
	if o.Tasks().Set != 7 || o.Tasks().Total() != 7 {
		t.Errorf("oracle tally = %v", o.Tasks())
	}
}

func TestGroupCoverageCaseIAllYes(t *testing.T) {
	// Section 3.2 Case I: every set query answers yes (alternating
	// members), N = n. The execution tree is complete and the task
	// count is exactly 2*tau - 1.
	bits := make([]int, 64)
	for i := range bits {
		bits[i] = i % 2
	}
	d := binaryDataset(t, bits)
	o := NewTruthOracle(d)
	tau := 8
	res, err := GroupCoverage(o, d.IDs(), 64, tau, female(d))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Error("want covered")
	}
	if res.Tasks != 2*tau-1 {
		t.Errorf("tasks = %d, want %d (Case I: 2*tau-1)", res.Tasks, 2*tau-1)
	}
}

func TestGroupCoverageCaseIISingleMember(t *testing.T) {
	// Section 3.2 Case II: exactly one group member among n objects.
	// The execution tree is a single root-to-leaf path with both
	// children queried per level minus sibling inference savings:
	// Theta(log n) tasks.
	for _, pos := range []int{0, 13, 63} {
		bits := make([]int, 64)
		bits[pos] = 1
		d := binaryDataset(t, bits)
		o := NewTruthOracle(d)
		res, err := GroupCoverage(o, d.IDs(), 64, 2, female(d))
		if err != nil {
			t.Fatal(err)
		}
		if res.Covered {
			t.Errorf("pos %d: want uncovered", pos)
		}
		if res.Count != 1 || !res.Exact {
			t.Errorf("pos %d: count = %d exact=%v, want exactly 1", pos, res.Count, res.Exact)
		}
		// Path depth log2(64) = 6; at most 2 queries per level plus root.
		if res.Tasks > 13 {
			t.Errorf("pos %d: tasks = %d, want Theta(log n) <= 13", pos, res.Tasks)
		}
	}
}

func TestGroupCoverageEmptyGroup(t *testing.T) {
	// No members at all: the root of every tree answers no; cost is
	// exactly the number of roots, the information-theoretic minimum.
	bits := make([]int, 200)
	d := binaryDataset(t, bits)
	o := NewTruthOracle(d)
	res, err := GroupCoverage(o, d.IDs(), 50, 10, female(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered || res.Count != 0 || !res.Exact {
		t.Errorf("result = %+v, want exact uncovered 0", res)
	}
	if want := LowerBoundTasks(200, 50); res.Tasks != want {
		t.Errorf("tasks = %d, want %d roots only", res.Tasks, want)
	}
}

func TestGroupCoverageParameterValidation(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	o := NewTruthOracle(d)
	g := female(d)
	if _, err := GroupCoverage(nil, d.IDs(), 1, 1, g); err == nil {
		t.Error("nil oracle: want error")
	}
	if _, err := GroupCoverage(o, d.IDs(), 0, 1, g); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := GroupCoverage(o, d.IDs(), 1, -1, g); err == nil {
		t.Error("tau<0: want error")
	}
}

func TestGroupCoverageDegenerateInputs(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 1})
	o := NewTruthOracle(d)
	g := female(d)

	// tau = 0: trivially covered, zero tasks.
	res, err := GroupCoverage(o, d.IDs(), 2, 0, g)
	if err != nil || !res.Covered || res.Tasks != 0 {
		t.Errorf("tau=0: %+v, %v", res, err)
	}
	// Empty universe with tau > 0: uncovered, zero tasks.
	res, err = GroupCoverage(o, nil, 2, 1, g)
	if err != nil || res.Covered || res.Tasks != 0 || !res.Exact {
		t.Errorf("empty ids: %+v, %v", res, err)
	}
	// n = 1 degenerates into set queries of size one.
	res, err = GroupCoverage(o, d.IDs(), 1, 2, g)
	if err != nil || !res.Covered || res.Count != 2 {
		t.Errorf("n=1: %+v, %v", res, err)
	}
	// n > N: one root covering everything.
	res, err = GroupCoverage(o, d.IDs(), 1000, 2, g)
	if err != nil || !res.Covered {
		t.Errorf("n>N: %+v, %v", res, err)
	}
}

func TestGroupCoverageMatchesGroundTruthRandomized(t *testing.T) {
	// Correctness property (Lemma 3.1): the verdict always matches
	// ground truth, and the count is exact whenever uncovered.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		f := rng.Intn(n + 1)
		tau := 1 + rng.Intn(80)
		setSize := 1 + rng.Intn(128)
		d, err := dataset.BinaryWithMinority(n, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		o := NewTruthOracle(d)
		g := female(d)
		res, err := GroupCoverage(o, d.IDs(), setSize, tau, g)
		if err != nil {
			t.Fatal(err)
		}
		want := f >= tau
		if res.Covered != want {
			t.Fatalf("trial %d (N=%d f=%d tau=%d n=%d): covered = %v, want %v",
				trial, n, f, tau, setSize, res.Covered, want)
		}
		if !res.Covered {
			if !res.Exact || res.Count != f {
				t.Fatalf("trial %d: uncovered count = %d (exact=%v), want exactly %d",
					trial, res.Count, res.Exact, f)
			}
		} else if res.Count < tau {
			t.Fatalf("trial %d: covered but count %d < tau %d", trial, res.Count, tau)
		}
	}
}

func TestGroupCoverageTasksWithinUpperBound(t *testing.T) {
	// Cost property (Theorem 3.2 / Lemma 3.3): tasks never exceed the
	// Theta(N/n + tau log n) bound instantiated with explicit constants.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(3000)
		f := rng.Intn(n + 1)
		tau := 1 + rng.Intn(60)
		setSize := 2 + rng.Intn(127)
		d, err := dataset.BinaryWithMinority(n, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		o := NewTruthOracle(d)
		res, err := GroupCoverage(o, d.IDs(), setSize, tau, female(d))
		if err != nil {
			t.Fatal(err)
		}
		bound := UpperBoundTasksLog2(n, setSize, tau)
		// Uncovered groups with f close to tau may have up to f < tau
		// members' worth of paths; the bound already covers that.
		if res.Tasks > bound {
			t.Fatalf("trial %d (N=%d f=%d tau=%d n=%d): tasks %d exceed bound %d",
				trial, n, f, tau, setSize, res.Tasks, bound)
		}
		if low := LowerBoundTasks(n, setSize); !res.Covered && res.Tasks < low {
			t.Fatalf("trial %d: uncovered audit used %d tasks, below the %d lower bound",
				trial, res.Tasks, low)
		}
	}
}

func TestGroupCoverageCheaperThanBaseNearThreshold(t *testing.T) {
	// The regime the paper highlights: f close to tau. Group-Coverage
	// must beat the point-query baseline comfortably on a large
	// dataset.
	rng := rand.New(rand.NewSource(33))
	d, err := dataset.BinaryWithMinority(20000, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := female(d)
	o1 := NewTruthOracle(d)
	gc, err := GroupCoverage(o1, d.IDs(), 50, 50, g)
	if err != nil {
		t.Fatal(err)
	}
	o2 := NewTruthOracle(d)
	base, err := BaseCoverage(o2, d.IDs(), 50, g)
	if err != nil {
		t.Fatal(err)
	}
	if !gc.Covered || !base.Covered {
		t.Fatalf("both must report covered: gc=%v base=%v", gc.Covered, base.Covered)
	}
	if gc.Tasks*3 > base.Tasks {
		t.Errorf("Group-Coverage %d tasks vs Base-Coverage %d: want >= 3x savings",
			gc.Tasks, base.Tasks)
	}
}

func TestBaseCoverage(t *testing.T) {
	bits := []int{0, 1, 0, 1, 1, 0}
	d := binaryDataset(t, bits)
	g := female(d)

	o := NewTruthOracle(d)
	res, err := BaseCoverage(o, d.IDs(), 2, g)
	if err != nil {
		t.Fatal(err)
	}
	// Scanning in order, the second female sits at position 3.
	if !res.Covered || res.Tasks != 4 || res.Count != 2 {
		t.Errorf("BaseCoverage = %+v, want covered after 4 tasks", res)
	}

	o.Reset()
	res, err = BaseCoverage(o, d.IDs(), 10, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered || res.Count != 3 || !res.Exact || res.Tasks != 6 {
		t.Errorf("uncovered BaseCoverage = %+v, want exact count 3 after all 6 tasks", res)
	}

	if _, err := BaseCoverage(nil, d.IDs(), 1, g); err == nil {
		t.Error("nil oracle: want error")
	}
	if _, err := BaseCoverage(o, d.IDs(), -1, g); err == nil {
		t.Error("tau<0: want error")
	}
	res, err = BaseCoverage(o, d.IDs(), 0, g)
	if err != nil || !res.Covered || res.Tasks != 0 {
		t.Errorf("tau=0 = %+v, %v", res, err)
	}
}

func TestGroupCoveragePropagatesOracleErrors(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 0, 1, 0, 1, 0, 1})
	flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 3}
	_, err := GroupCoverage(flaky, d.IDs(), 4, 4, female(d))
	if !errors.Is(err, ErrTransient) {
		t.Errorf("err = %v, want ErrTransient", err)
	}
	flaky = &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 2}
	_, err = BaseCoverage(flaky, d.IDs(), 4, female(d))
	if !errors.Is(err, ErrTransient) {
		t.Errorf("base err = %v, want ErrTransient", err)
	}
}

func TestGroupResultString(t *testing.T) {
	d := binaryDataset(t, []int{1})
	r := GroupResult{Group: female(d), Covered: true, Count: 5, Tasks: 9}
	if r.String() == "" {
		t.Error("empty string")
	}
	r.Covered = false
	r.Exact = true
	if r.String() == "" {
		t.Error("empty string")
	}
}

func TestGroupCoverageIntersectionalGroup(t *testing.T) {
	// Algorithm 1 must work for any group predicate, not only binary
	// attributes: audit female-asian over a gender x race dataset.
	s := pattern.MustSchema(
		pattern.Attribute{Name: "gender", Values: []string{"male", "female"}},
		pattern.Attribute{Name: "race", Values: []string{"white", "black", "asian"}},
	)
	rng := rand.New(rand.NewSource(34))
	counts := make([]int, s.NumSubgroups())
	counts[pattern.SubgroupIndex(s, pattern.MustPattern(s, 0, 0))] = 500
	counts[pattern.SubgroupIndex(s, pattern.MustPattern(s, 1, 0))] = 300
	counts[pattern.SubgroupIndex(s, pattern.MustPattern(s, 1, 2))] = 7
	d := dataset.MustFromCounts(s, counts, rng)
	g := pattern.GroupOf("female-asian", pattern.MustPattern(s, 1, 2))
	o := NewTruthOracle(d)
	res, err := GroupCoverage(o, d.IDs(), 50, 10, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered || res.Count != 7 || !res.Exact {
		t.Errorf("female-asian audit = %+v, want exact uncovered 7", res)
	}
}

// TestGroupCoverageAllocatesPerSplitNotPerBlock: the walk hands the
// initial blocks out with a cursor and allocates tree nodes only under
// a yes, so an audit over a dataset with no group member allocates the
// same few objects however many blocks it asks about.
func TestGroupCoverageAllocatesPerSplitNotPerBlock(t *testing.T) {
	s := pattern.MustSchema(pattern.Attribute{Name: "a", Values: []string{"0", "1"}})
	d := dataset.MustFromCounts(s, []int{10_000, 0}, rand.New(rand.NewSource(1)))
	g := pattern.GroupsForAttribute(s, 0)[1]
	o := NewTruthOracle(d)
	ids := d.IDs()
	var res GroupResult
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if res, err = GroupCoverage(o, ids, 10, 5, g); err != nil {
			t.Fatal(err)
		}
	})
	if res.Tasks != 1000 || res.Count != 0 || !res.Exact {
		t.Fatalf("result %+v, want 1000 tasks and an exact count of 0", res)
	}
	if allocs > 10 {
		t.Errorf("%.0f allocations for 1000 initial blocks, want at most 10", allocs)
	}
}

func TestGroupCoverageRoundsMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(2000)
		f := rng.Intn(n + 1)
		tau := 1 + rng.Intn(60)
		setSize := 1 + rng.Intn(100)
		d, err := dataset.BinaryWithMinority(n, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Female(d.Schema())
		res, err := GroupCoverageRounds(context.Background(), NewTruthOracle(d), d.IDs(), setSize, tau, g, 8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Covered != (f >= tau) {
			t.Fatalf("trial %d (N=%d f=%d tau=%d): covered=%v, want %v",
				trial, n, f, tau, res.Covered, f >= tau)
		}
		if !res.Covered && (!res.Exact || res.Count != f) {
			t.Fatalf("trial %d: uncovered count %d (exact=%v), want %d", trial, res.Count, res.Exact, f)
		}
	}
}

// postCounter is a native BatchOracle that counts the HITs posted to
// it, answered or later dropped.
type postCounter struct {
	BatchOracle
	posted int
}

func (c *postCounter) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	c.posted += len(reqs)
	return c.BatchOracle.SetQueryBatch(reqs)
}

// TestGroupCoverageRoundsEqualsAlgorithm1: posting the walk's whole
// queue each round changes the rounds, not the result. Over randomized
// truthful instances the batched audit returns GroupCoverage's
// GroupResult exactly, in at most 1+ceil(log2 n) rounds, and posts at
// least the tasks it counts: answers dropped after the stop or under
// an inferred sibling were paid but not counted.
func TestGroupCoverageRoundsEqualsAlgorithm1(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	dropped := 0
	for trial := 0; trial < 400; trial++ {
		size := 1 + rng.Intn(3000)
		d, err := dataset.BinaryWithMinority(size, rng.Intn(size+1), rng)
		if err != nil {
			t.Fatal(err)
		}
		n, tau := 1+rng.Intn(128), 1+rng.Intn(80)
		g := dataset.Female(d.Schema())
		want, err := GroupCoverage(NewTruthOracle(d), d.IDs(), n, tau, g)
		if err != nil {
			t.Fatal(err)
		}
		o := &postCounter{BatchOracle: NewTruthOracle(d)}
		got, err := GroupCoverageRounds(context.Background(), o, d.IDs(), n, tau, g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.GroupResult, want) {
			t.Fatalf("trial %d (N=%d n=%d tau=%d): %+v, want %+v", trial, size, n, tau, got.GroupResult, want)
		}
		if bound := 1 + bits.Len(uint(n-1)); got.Rounds > bound {
			t.Fatalf("trial %d: %d rounds, want <= 1+ceil(log2 %d) = %d", trial, got.Rounds, n, bound)
		}
		if o.posted < got.Tasks {
			t.Fatalf("trial %d: posted %d HITs, fewer than the %d tasks counted", trial, o.posted, got.Tasks)
		}
		dropped += o.posted - got.Tasks
	}
	if dropped == 0 {
		t.Error("no instance posted an answer it dropped; the instances never exercise the stop or the inference")
	}
}

func TestGroupCoverageRoundsLatencyBound(t *testing.T) {
	// Rounds are bounded by 1 + ceil(log2 setSize): one round per tree
	// level, all trees advancing together.
	rng := rand.New(rand.NewSource(302))
	d, err := dataset.BinaryWithMinority(5000, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	res, err := GroupCoverageRounds(context.Background(), NewTruthOracle(d), d.IDs(), 64, 50, g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 7 { // 1 + log2(64)
		t.Errorf("rounds = %d, want <= 7", res.Rounds)
	}
	// The sequential algorithm takes one "round" per task; the batch
	// variant must be dramatically lower latency.
	seq, err := GroupCoverage(NewTruthOracle(d), d.IDs(), 64, 50, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds*10 > seq.Tasks {
		t.Errorf("rounds %d not much below sequential latency %d", res.Rounds, seq.Tasks)
	}
	// And it commits exactly the sequential algorithm's tasks.
	if !reflect.DeepEqual(res.GroupResult, seq) {
		t.Errorf("batched %+v, want the sequential %+v", res.GroupResult, seq)
	}
}

func TestGroupCoverageRoundsValidationAndDegenerate(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	o := NewTruthOracle(d)
	g := female(d)
	ctx := context.Background()
	if _, err := GroupCoverageRounds(ctx, nil, d.IDs(), 1, 1, g, 4); err == nil {
		t.Error("nil oracle: want error")
	}
	if _, err := GroupCoverageRounds(ctx, o, d.IDs(), 0, 1, g, 4); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := GroupCoverageRounds(ctx, o, d.IDs(), 1, -1, g, 4); err == nil {
		t.Error("tau<0: want error")
	}
	res, err := GroupCoverageRounds(ctx, o, d.IDs(), 2, 0, g, 4)
	if err != nil || !res.Covered || res.Rounds != 0 {
		t.Errorf("tau=0: %+v, %v", res, err)
	}
	res, err = GroupCoverageRounds(ctx, o, nil, 2, 1, g, 4)
	if err != nil || res.Covered || !res.Exact {
		t.Errorf("empty ids: %+v, %v", res, err)
	}
	// parallelism < 1 falls back to a sane default.
	res, err = GroupCoverageRounds(ctx, o, d.IDs(), 2, 1, g, 0)
	if err != nil || !res.Covered {
		t.Errorf("default parallelism: %+v, %v", res, err)
	}
}

func TestGroupCoverageRoundsPropagatesErrors(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 0, 1, 0, 1, 0, 1})
	flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 3}
	// Use parallelism 1 so FlakyOracle's unsynchronized counter is
	// exercised deterministically.
	_, err := GroupCoverageRounds(context.Background(), flaky, d.IDs(), 4, 4, female(d), 1)
	if !errors.Is(err, ErrTransient) {
		t.Errorf("err = %v, want ErrTransient", err)
	}
}
