package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// runMultiple audits the race-schema dataset at the given parallelism
// with a fresh identically-seeded oracle and RNG.
func runMultiple(t *testing.T, d *dataset.Dataset, groups []pattern.Group, tau, parallelism int, seed int64) (*MultipleResult, TaskCounts) {
	t.Helper()
	o := NewTruthOracle(d)
	res, err := MultipleCoverage(o, d.IDs(), 50, tau, groups,
		MultipleOptions{Rng: rand.New(rand.NewSource(seed)), Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return res, o.Tasks()
}

// TestParallelMultipleDeterminism: one seed must produce byte-identical
// results at every parallelism level — the property that makes the
// concurrent engine a drop-in replacement for the experiments.
func TestParallelMultipleDeterminism(t *testing.T) {
	s := raceSchema()
	groups := pattern.GroupsForAttribute(s, 0)
	compositions := [][]int{
		{9800, 10, 8, 6},      // effective: uncovered super-group
		{9000, 300, 250, 200}, // covered minorities
		{9500, 30, 28, 26},    // adversarial: covered super-group of uncovered minorities
		{9900, 12, 8, 80},     // mixed
	}
	// repr renders every field by value (fmt sorts map keys), so equal
	// strings mean byte-identical results.
	repr := func(r *MultipleResult) string {
		return fmt.Sprintf("%+v|%+v|%+v|%+v|%d|%d|%d",
			r.Results, r.SuperAudits, r.Labeled, r.RemainingIDs,
			r.SampleTasks, r.AuditTasks, r.Tasks)
	}
	for ci, counts := range compositions {
		d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(int64(90+ci))))
		base, baseTasks := runMultiple(t, d, groups, 50, 1, 7)
		baseRepr := repr(base)
		for _, par := range []int{4, 16} {
			res, tasks := runMultiple(t, d, groups, 50, par, 7)
			if !reflect.DeepEqual(res, base) {
				t.Errorf("composition %d: parallelism %d diverged from sequential", ci, par)
			}
			if got := repr(res); got != baseRepr {
				t.Errorf("composition %d: parallelism %d representation diverged:\n%s\nvs\n%s", ci, par, got, baseRepr)
			}
			if tasks != baseTasks {
				t.Errorf("composition %d: parallelism %d oracle counts %v, want %v", ci, par, tasks, baseTasks)
			}
		}
	}
}

// TestParallelPenaltyBranch pins the adversarial Table 3 setting: the
// covered super-group of individually uncovered minorities must fan
// its per-member re-audits across the pool and still settle every
// member as uncovered with exact counts.
func TestParallelPenaltyBranch(t *testing.T) {
	s := raceSchema()
	counts := []int{9500, 30, 28, 26} // sum 84 >= tau 50: super covered, members not
	d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(96)))
	groups := pattern.GroupsForAttribute(s, 0)
	// NoSampling leaves every expected count at zero, so the
	// aggregation merges maximally and the union is covered — the
	// penalty branch is guaranteed to fire.
	o := NewTruthOracle(d)
	res, err := MultipleCoverage(o, d.IDs(), 50, 50, groups,
		MultipleOptions{Rng: rand.New(rand.NewSource(11)), Parallelism: 8, NoSampling: true})
	if err != nil {
		t.Fatal(err)
	}

	penalty := false
	for _, audit := range res.SuperAudits {
		if len(audit.GroupIndices) > 1 && audit.Covered {
			penalty = true
		}
	}
	if !penalty {
		t.Fatalf("expected a covered multi-member super-group; audits: %+v", res.SuperAudits)
	}
	for gi := 1; gi < 4; gi++ {
		r := res.Results[gi]
		if r.Covered {
			t.Errorf("minority %d reported covered", gi)
		}
		if r.CountLo > counts[gi] || r.CountHi < counts[gi] {
			t.Errorf("minority %d bounds [%d,%d] exclude %d", gi, r.CountLo, r.CountHi, counts[gi])
		}
	}
}

func TestParallelMultiplePropagatesErrors(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{400, 10, 10, 10}, rand.New(rand.NewSource(97)))
	groups := pattern.GroupsForAttribute(s, 0)
	flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 7}
	_, err := MultipleCoverage(flaky, d.IDs(), 20, 20, groups,
		MultipleOptions{Rng: rand.New(rand.NewSource(1)), Parallelism: 8})
	if !errors.Is(err, ErrTransient) {
		t.Errorf("err = %v, want transient failure propagated", err)
	}
}

// TestRetryRecoversTransientFailures: with a retry budget, a flaky
// crowd no longer aborts the audit, sequentially or in parallel, and
// the verdicts still match ground truth.
func TestRetryRecoversTransientFailures(t *testing.T) {
	s := raceSchema()
	counts := []int{400, 10, 60, 10}
	d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(98)))
	groups := pattern.GroupsForAttribute(s, 0)
	tau := 20
	for _, par := range []int{1, 8} {
		flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 7}
		res, err := MultipleCoverage(flaky, d.IDs(), 20, tau, groups, MultipleOptions{
			Rng:         rand.New(rand.NewSource(2)),
			Parallelism: par,
			Retry:       RetryPolicy{MaxAttempts: 3},
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v (retries should absorb transient failures)", par, err)
		}
		for gi, r := range res.Results {
			if want := counts[gi] >= tau; r.Covered != want {
				t.Errorf("parallelism %d group %d: covered=%v want %v", par, gi, r.Covered, want)
			}
		}
	}
}

// nativeBatchCounter distinguishes whole-round calls from singular
// ones reaching the inner oracle.
type nativeBatchCounter struct {
	*TruthOracle
	batchRounds, singles int
}

func (b *nativeBatchCounter) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	b.singles++
	return b.TruthOracle.SetQuery(ids, g)
}
func (b *nativeBatchCounter) PointQuery(id dataset.ObjectID) ([]int, error) {
	b.singles++
	return b.TruthOracle.PointQuery(id)
}
func (b *nativeBatchCounter) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	b.batchRounds++
	return b.TruthOracle.SetQueryBatch(reqs)
}
func (b *nativeBatchCounter) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	b.batchRounds++
	return b.TruthOracle.PointQueryBatch(ids)
}

// TestRetryPreservesNativeBatching: wrapping a natively batching
// oracle in the retry middleware must keep whole rounds whole — the
// property the crowd platform's reproducibility depends on.
func TestRetryPreservesNativeBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	d, err := dataset.BinaryWithMinority(200, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	counter := &nativeBatchCounter{TruthOracle: NewTruthOracle(d)}
	bo := AsBatchOracle(withRetry(context.Background(), counter, RetryPolicy{MaxAttempts: 3}, rand.New(rand.NewSource(1))), 8)
	if _, err := bo.PointQueryBatch(d.IDs()[:20]); err != nil {
		t.Fatal(err)
	}
	reqs := []SetRequest{{IDs: d.IDs()[:10], Group: dataset.Female(d.Schema())}}
	if _, err := bo.SetQueryBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if counter.batchRounds != 2 || counter.singles != 0 {
		t.Errorf("rounds=%d singles=%d, want 2 native rounds and no singular calls",
			counter.batchRounds, counter.singles)
	}

	// Over a plain oracle the same wrapper retries per request.
	flaky := &firstAttemptFlaky{inner: NewTruthOracle(d), tried: map[dataset.ObjectID]bool{}}
	bo = AsBatchOracle(withRetry(context.Background(), flaky, RetryPolicy{MaxAttempts: 2}, rand.New(rand.NewSource(2))), 8)
	ids := d.IDs()[:30]
	if _, err := bo.PointQueryBatch(ids); err != nil {
		t.Errorf("per-request retry over plain oracle: %v", err)
	}
	want := 0
	for _, id := range ids {
		if id%5 == 0 {
			want++
		}
	}
	if flaky.failed != want {
		t.Errorf("%d injected failures, want one per id divisible by 5 (%d)", flaky.failed, want)
	}
}

// firstAttemptFlaky is a plain (non-batching) oracle whose failures
// are a function of the request, not of call order: the first attempt
// of each point query on an id divisible by 5 fails transiently and
// every later attempt succeeds, so two attempts always suffice however
// a concurrent pool interleaves the calls.
type firstAttemptFlaky struct {
	inner Oracle

	mu     sync.Mutex
	tried  map[dataset.ObjectID]bool
	failed int
}

func (f *firstAttemptFlaky) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return f.inner.SetQuery(ids, g)
}
func (f *firstAttemptFlaky) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return f.inner.ReverseSetQuery(ids, g)
}
func (f *firstAttemptFlaky) PointQuery(id dataset.ObjectID) ([]int, error) {
	f.mu.Lock()
	fail := id%5 == 0 && !f.tried[id]
	f.tried[id] = true
	if fail {
		f.failed++
	}
	f.mu.Unlock()
	if fail {
		return nil, ErrTransient
	}
	return f.inner.PointQuery(id)
}

func TestRetryGivesUpAfterBudget(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 0, 1})
	flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 1} // always fails
	o := withRetry(context.Background(), flaky, RetryPolicy{MaxAttempts: 3}, rand.New(rand.NewSource(3)))
	if _, err := o.SetQuery(d.IDs(), female(d)); !errors.Is(err, ErrTransient) {
		t.Errorf("err = %v, want transient after exhausting attempts", err)
	}
	if flaky.calls != 3 {
		t.Errorf("inner attempts = %d, want 3", flaky.calls)
	}
}

func TestLabelSamplesBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d, err := dataset.BinaryWithMinority(300, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	seqL, batchL := NewLabeledSet(), NewLabeledSet()
	seqRem, seqTasks, err := LabelSamples(NewTruthOracle(d), d.IDs(), 60, seqL, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	batchRem, batchTasks, err := LabelSamplesBatch(NewTruthOracle(d), d.IDs(), 60, batchL, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if seqTasks != batchTasks || !reflect.DeepEqual(seqRem, batchRem) || !reflect.DeepEqual(seqL, batchL) {
		t.Errorf("batched sampling diverged: tasks %d/%d, |rem| %d/%d",
			seqTasks, batchTasks, len(seqRem), len(batchRem))
	}
}

func TestLabelSamplesBatchValidates(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	o := NewTruthOracle(d)
	l := NewLabeledSet()
	rng := rand.New(rand.NewSource(6))
	if _, _, err := LabelSamplesBatch(nil, d.IDs(), 1, l, rng); err == nil {
		t.Error("nil oracle: want error")
	}
	if _, _, err := LabelSamplesBatch(o, d.IDs(), 1, nil, rng); err == nil {
		t.Error("nil labeled set: want error")
	}
	if _, _, err := LabelSamplesBatch(o, d.IDs(), 1, l, nil); err == nil {
		t.Error("nil rng: want error")
	}
	if _, _, err := LabelSamplesBatch(o, d.IDs(), -1, l, rng); err == nil {
		t.Error("negative k: want error")
	}
	if rem, tasks, err := LabelSamplesBatch(o, d.IDs(), 10, l, rng); err != nil || tasks != 2 || len(rem) != 0 {
		t.Errorf("clamp: rem=%d tasks=%d err=%v", len(rem), tasks, err)
	}
}

// TestParallelIntersectionalAgrees: the concurrent engine slots under
// Intersectional-Coverage unchanged.
func TestParallelIntersectionalAgrees(t *testing.T) {
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
	)
	d := dataset.MustFromCounts(s, []int{500, 10, 300, 8}, rand.New(rand.NewSource(100)))
	seq, err := IntersectionalCoverage(NewTruthOracle(d), d.IDs(), 30, 30, s,
		MultipleOptions{Rng: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	par, err := IntersectionalCoverage(NewTruthOracle(d), d.IDs(), 30, 30, s,
		MultipleOptions{Rng: rand.New(rand.NewSource(8)), Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Verdicts, par.Verdicts) || !reflect.DeepEqual(seq.MUPs, par.MUPs) {
		t.Error("intersectional verdicts diverged between engines")
	}
	if seq.Tasks != par.Tasks {
		t.Errorf("tasks %d vs %d", seq.Tasks, par.Tasks)
	}
}

// TestRoundsBatchedMatchesLegacy pins the reworked level-synchronous
// driver: batched rounds still agree with the sequential algorithm's
// verdict and report the same round structure at any pool width.
func TestRoundsBatchedParallelismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	d, err := dataset.BinaryWithMinority(1200, 45, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	base, err := GroupCoverageRounds(NewTruthOracle(d), d.IDs(), 32, 50, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{4, 16} {
		res, err := GroupCoverageRounds(NewTruthOracle(d), d.IDs(), 32, 50, g, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("parallelism %d: %+v, want %+v", par, res, base)
		}
	}
}
