package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// classifierInstance is one randomized Classifier-Coverage workload:
// dataset composition, classifier quality (true/false positives in the
// predicted set), and audit parameters. The mix is chosen so both
// strategies, early stops, full drains and the residual hunt all occur
// across the suite.
type classifierInstance struct {
	n, f, tau, setSize  int
	tp, fp              int
	dataSeed, auditSeed int64
}

func generateClassifierInstance(rng *rand.Rand) classifierInstance {
	n := 200 + rng.Intn(1500)
	f := rng.Intn(n / 3)
	inst := classifierInstance{
		n: n, f: f,
		tau:       1 + rng.Intn(60),
		setSize:   1 + rng.Intn(80),
		tp:        rng.Intn(f + 1),
		fp:        rng.Intn((n-f)/2 + 1),
		dataSeed:  rng.Int63(),
		auditSeed: rng.Int63(),
	}
	return inst
}

// runClassifierCell executes one (instance, options) cell against a
// fresh TruthOracle and serializes the full result.
func runClassifierCell(t *testing.T, inst classifierInstance, parallelism int, lockstep bool) string {
	t.Helper()
	d, err := dataset.BinaryWithMinority(inst.n, inst.f, rand.New(rand.NewSource(inst.dataSeed)))
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	predicted := predictedSet(d, inst.tp, inst.fp)
	res, err := ClassifierCoverage(NewTruthOracle(d), d.IDs(), predicted, inst.setSize, inst.tau, g,
		ClassifierOptions{
			Rng:         rand.New(rand.NewSource(inst.auditSeed)),
			Parallelism: parallelism,
			Lockstep:    lockstep,
		})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", res)
}

// TestClassifierLockstepMatchesSequentialRandomized is the equivalence
// matrix for the batched engine: >= 50 randomized instances, each run
// sequentially and then under Lockstep at P in {1, 2, 4, 16}, asserting
// a byte-identical ClassifierResult (Strategy, Count, Exact, EstFPRate
// and the full task breakdown). Run under -race in CI, so the claim is
// checked on genuinely concurrent schedules.
func TestClassifierLockstepMatchesSequentialRandomized(t *testing.T) {
	instances := 50
	if testing.Short() {
		instances = 12
	}
	rng := rand.New(rand.NewSource(20250))
	for i := 0; i < instances; i++ {
		inst := generateClassifierInstance(rng)
		t.Run(fmt.Sprintf("%02d", i), func(t *testing.T) {
			want := runClassifierCell(t, inst, 1, false)
			for _, par := range []int{1, 2, 4, 16} {
				if got := runClassifierCell(t, inst, par, true); got != want {
					t.Fatalf("lockstep P=%d diverged from the sequential engine:\n--- lockstep ---\n%s\n--- sequential ---\n%s\n(instance %+v)",
						par, got, want, inst)
				}
			}
		})
	}
}

// TestClassifierFreePoolMatchesSequentialRandomized pins the rule that
// Parallelism > 1 alone selects the lockstep engine: with Lockstep
// unset, the batched engine still reproduces the sequential engine at
// every width against an order-independent oracle.
func TestClassifierFreePoolMatchesSequentialRandomized(t *testing.T) {
	instances := 20
	if testing.Short() {
		instances = 6
	}
	rng := rand.New(rand.NewSource(20251))
	for i := 0; i < instances; i++ {
		inst := generateClassifierInstance(rng)
		t.Run(fmt.Sprintf("%02d", i), func(t *testing.T) {
			want := runClassifierCell(t, inst, 1, false)
			for _, par := range []int{2, 8} {
				if got := runClassifierCell(t, inst, par, false); got != want {
					t.Fatalf("P=%d with Lockstep unset diverged from the sequential engine:\n%s\nvs\n%s\n(instance %+v)",
						par, got, want, inst)
				}
			}
		})
	}
}

// roundLogOracle is a native BatchOracle over ground truth that logs
// every committed batch as the sizes and first ids of its requests —
// enough to fingerprint round composition and order without recording
// answers.
type roundLogOracle struct {
	*TruthOracle

	mu  sync.Mutex
	log []string
}

func newRoundLogOracle(d *dataset.Dataset) *roundLogOracle {
	return &roundLogOracle{TruthOracle: NewTruthOracle(d)}
}

func (o *roundLogOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	o.mu.Lock()
	line := fmt.Sprintf("set[%d]:", len(reqs))
	for _, r := range reqs {
		line += fmt.Sprintf(" %d+%d", r.IDs[0], len(r.IDs))
	}
	o.log = append(o.log, line)
	o.mu.Unlock()
	return o.TruthOracle.SetQueryBatch(reqs)
}

func (o *roundLogOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	o.mu.Lock()
	line := fmt.Sprintf("point[%d]:", len(ids))
	for _, id := range ids {
		line += fmt.Sprintf(" %d", id)
	}
	o.log = append(o.log, line)
	o.mu.Unlock()
	return o.TruthOracle.PointQueryBatch(ids)
}

// TestClassifierLockstepRoundsWidthIndependent asserts the property the
// cross-parallelism guarantee rests on: under Lockstep, the exact
// sequence of committed rounds — composition AND order within each
// round — is identical at every Parallelism value, so an
// order-dependent oracle consumes its state identically at any width.
func TestClassifierLockstepRoundsWidthIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(20252))
	for i := 0; i < 8; i++ {
		inst := generateClassifierInstance(rng)
		d, err := dataset.BinaryWithMinority(inst.n, inst.f, rand.New(rand.NewSource(inst.dataSeed)))
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Female(d.Schema())
		predicted := predictedSet(d, inst.tp, inst.fp)
		runLog := func(par int) []string {
			o := newRoundLogOracle(d)
			_, err := ClassifierCoverage(o, d.IDs(), predicted, inst.setSize, inst.tau, g,
				ClassifierOptions{Rng: rand.New(rand.NewSource(inst.auditSeed)), Parallelism: par, Lockstep: true})
			if err != nil {
				t.Fatal(err)
			}
			return o.log
		}
		base := runLog(1)
		for _, par := range []int{4, 16} {
			got := runLog(par)
			if fmt.Sprint(got) != fmt.Sprint(base) {
				t.Fatalf("instance %d: round log at P=%d diverged from P=1:\n%v\nvs\n%v", i, par, got, base)
			}
		}
	}
}

// TestClassifierParallelPropagatesErrors mirrors the sequential error
// test on the batched engine: a transiently failing oracle must abort
// the audit instead of mislabeling coverage.
func TestClassifierParallelPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(20253))
	d, _ := dataset.BinaryWithMinority(100, 20, rng)
	g := dataset.Female(d.Schema())
	predicted := predictedSet(d, 20, 5)
	for _, lockstep := range []bool{false, true} {
		flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 3}
		if _, err := ClassifierCoverage(flaky, d.IDs(), predicted, 10, 15, g,
			ClassifierOptions{Rng: rng, Parallelism: 4, Lockstep: lockstep}); err == nil {
			t.Errorf("lockstep=%v: want propagated transient error", lockstep)
		}
	}
}

// TestClassifierRetryRecoversTransientFailures pins WithRetry parity
// with the multi-group engines: a transiently flaky oracle must not
// abort a classifier audit when a retry policy is set, on either
// engine. The sequential run must additionally match a clean oracle's
// result exactly — retries re-post HITs, they never change the
// algorithm-level task accounting.
func TestClassifierRetryRecoversTransientFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(20255))
	d, _ := dataset.BinaryWithMinority(400, 80, rng)
	g := dataset.Female(d.Schema())
	predicted := predictedSet(d, 60, 6)
	policy := RetryPolicy{MaxAttempts: 8}

	clean, err := ClassifierCoverage(NewTruthOracle(d), d.IDs(), predicted, 25, 50, g,
		ClassifierOptions{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	cases := []ClassifierOptions{
		{Rng: rand.New(rand.NewSource(1)), Retry: policy},
		{Rng: rand.New(rand.NewSource(1)), Retry: policy, Parallelism: 4},
		{Rng: rand.New(rand.NewSource(1)), Retry: policy, Parallelism: 4, Lockstep: true},
	}
	for i, opts := range cases {
		flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 7}
		res, err := ClassifierCoverage(flaky, d.IDs(), predicted, 25, 50, g, opts)
		if err != nil {
			t.Fatalf("case %d: retry did not absorb transient failures: %v", i, err)
		}
		if got, want := fmt.Sprintf("%+v", res), fmt.Sprintf("%+v", clean); got != want {
			t.Errorf("case %d: retried audit diverged from the clean oracle's:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestPartitionCleanRoundsMatchesSequential compares the production
// Partition walk, in sequential mode and in lockstep rounds, directly
// against the reference partitionClean across randomized compositions
// and stop thresholds, including stopAt values beyond the set (full
// drain) and tiny chunk sizes.
func TestPartitionCleanRoundsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20254))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		f := rng.Intn(n + 1)
		d, err := dataset.BinaryWithMinority(n, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Female(d.Schema())
		chunk := 1 + rng.Intn(64)
		stopAt := rng.Intn(n + 2)
		wantC, wantD, wantT, err := partitionClean(NewTruthOracle(d), d.IDs(), chunk, stopAt, g)
		if err != nil {
			t.Fatal(err)
		}
		par := 1 + rng.Intn(8)
		for _, lockstep := range []bool{false, true} {
			gotC, gotD, gotT, err := partitionWalk(NewTruthOracle(d), lockstep, par, d.IDs(), chunk, stopAt, g)
			if err != nil {
				t.Fatal(err)
			}
			if gotC != wantC || gotD != wantD || gotT != wantT {
				t.Fatalf("trial %d (N=%d f=%d chunk=%d stopAt=%d lockstep=%v P=%d): walk=(%d,%v,%d) reference=(%d,%v,%d)",
					trial, n, f, chunk, stopAt, lockstep, par, gotC, gotD, gotT, wantC, wantD, wantT)
			}
		}
	}
}

// TestPartitionAllocatesPerSplitNotPerBlock: the Partition walk hands
// the initial blocks out with a cursor and allocates tree nodes only
// for a block that splits, so verifying a predicted set with no false
// positive allocates the same few objects however many blocks it asks
// about, in either mode.
func TestPartitionAllocatesPerSplitNotPerBlock(t *testing.T) {
	s := pattern.MustSchema(pattern.Attribute{Name: "a", Values: []string{"0", "1"}})
	d := dataset.MustFromCounts(s, []int{0, 10_000}, rand.New(rand.NewSource(1)))
	g := pattern.GroupsForAttribute(s, 0)[1]
	predicted := d.IDs()
	for _, lockstep := range []bool{false, true} {
		e := newClassifierEngine(NewTruthOracle(d), nil, context.Background(), lockstep, 1, g)
		var (
			confirmed, tasks int
			drained          bool
		)
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if confirmed, drained, tasks, _, err = e.partitionCleanRounds(predicted, 10, 20_000); err != nil {
				t.Fatal(err)
			}
		})
		if confirmed != 10_000 || !drained || tasks != 1000 {
			t.Fatalf("lockstep=%v: confirmed %d, drained %v, %d tasks; want 10000, true, 1000", lockstep, confirmed, drained, tasks)
		}
		if allocs > 10 {
			t.Errorf("lockstep=%v: %.0f allocations for 1000 initial blocks, want at most 10", lockstep, allocs)
		}
	}
}
