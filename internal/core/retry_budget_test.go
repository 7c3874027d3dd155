package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// prefixFlakyBatch is a native BatchOracle that commits a prefix and
// then fails: every failEvery-th request — counted across calls —
// returns ErrTransient together with the answers committed before it,
// the partial-prefix clause of the BatchOracle contract as a flaky
// platform under a budget governor surfaces it. Requests the failure
// cuts off are NOT committed, so a correct retry must re-post exactly
// the unanswered suffix.
type prefixFlakyBatch struct {
	inner     *TruthOracle
	failEvery int
	calls     int
}

func (f *prefixFlakyBatch) tick() bool {
	f.calls++
	return f.failEvery > 0 && f.calls%f.failEvery == 0
}

func (f *prefixFlakyBatch) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	var answers []bool
	for _, req := range reqs {
		if f.tick() {
			return answers, ErrTransient
		}
		var ans bool
		var err error
		if req.Reverse {
			ans, err = f.inner.ReverseSetQuery(req.IDs, req.Group)
		} else {
			ans, err = f.inner.SetQuery(req.IDs, req.Group)
		}
		if err != nil {
			return answers, err
		}
		answers = append(answers, ans)
	}
	return answers, nil
}

func (f *prefixFlakyBatch) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	var labels [][]int
	for _, id := range ids {
		if f.tick() {
			return labels, ErrTransient
		}
		l, err := f.inner.PointQuery(id)
		if err != nil {
			return labels, err
		}
		labels = append(labels, l)
	}
	return labels, nil
}

func (f *prefixFlakyBatch) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	answers, err := f.SetQueryBatch([]SetRequest{{IDs: ids, Group: g}})
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

func (f *prefixFlakyBatch) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	answers, err := f.SetQueryBatch([]SetRequest{{IDs: ids, Group: g, Reverse: true}})
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

func (f *prefixFlakyBatch) PointQuery(id dataset.ObjectID) ([]int, error) {
	labels, err := f.PointQueryBatch([]dataset.ObjectID{id})
	if err != nil {
		return nil, err
	}
	return labels[0], nil
}

// retryReqs builds a 6-request set round plus its ground-truth answers.
func retryReqs(t *testing.T) (*dataset.Dataset, []SetRequest, []bool) {
	t.Helper()
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{60, 12, 10, 8}, rand.New(rand.NewSource(51)))
	g := pattern.GroupsForAttribute(s, 0)[1]
	ids := d.IDs()
	reqs := make([]SetRequest, 6)
	for i := range reqs {
		reqs[i] = SetRequest{IDs: ids[i*5 : (i+1)*5], Group: g}
	}
	truth := NewTruthOracle(d)
	want := make([]bool, len(reqs))
	for i, req := range reqs {
		var err error
		want[i], err = truth.SetQuery(req.IDs, req.Group)
		if err != nil {
			t.Fatal(err)
		}
	}
	return d, reqs, want
}

// TestRetryBatchNoDoubleCharge is the regression test for the retry x
// budget composition bug: a retried batch used to re-post the WHOLE
// round, double-charging the committed prefix against the governor and
// — with a failure period that divides the round length — never
// completing at all. The suffix-splice retry completes in two attempts
// and charges exactly the posted HITs, in both wrap orders.
//
// With failEvery=4 over 6 requests: attempt 1 commits 3 answers and
// fails the 4th request; attempt 2 re-posts the 3-request suffix and
// succeeds. Old code re-posted all 6 each attempt, hitting a failure
// every time (counters 4, 8, 12) and erroring out after MaxAttempts
// with 18 charged set HITs.
func TestRetryBatchNoDoubleCharge(t *testing.T) {
	_, reqs, want := retryReqs(t)
	policy := RetryPolicy{MaxAttempts: 3}
	check := func(name string, answers []bool, err error, spent BudgetSpent, wantSet int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: err = %v, want success (old retry re-posts the whole batch and never completes)", name, err)
		}
		if len(answers) != len(want) {
			t.Fatalf("%s: %d answers, want %d", name, len(answers), len(want))
		}
		for i := range want {
			if answers[i] != want[i] {
				t.Errorf("%s: answer[%d] = %v, want %v (spliced suffix misaligned)", name, i, answers[i], want[i])
			}
		}
		if spent.Set != wantSet {
			t.Errorf("%s: charged %d set HITs, want %d (committed prefix re-charged)", name, spent.Set, wantSet)
		}
	}

	// Retry over governor: the governor sees — and charges — every
	// re-post, so the two attempts charge 6 + 3.
	fresh := func(t *testing.T) *prefixFlakyBatch {
		d, _, _ := retryReqs(t)
		return &prefixFlakyBatch{inner: NewTruthOracle(d), failEvery: 4}
	}
	gov := NewBudgetedOracle(fresh(t), Budget{MaxHITs: 100})
	r := withRetry(context.Background(), gov, policy, rand.New(rand.NewSource(1)), 1)
	answers, err := AsBatchOracle(r, 1).SetQueryBatch(reqs)
	check("retry(gov(flaky))", answers, err, gov.Spent(), 9)

	// Governor over retry: the retries happen below the governor, so
	// the round charges its 6 requests once.
	r2 := withRetry(context.Background(), fresh(t), policy, rand.New(rand.NewSource(2)), 1)
	gov2 := NewBudgetedOracle(r2, Budget{MaxHITs: 100})
	answers2, err2 := gov2.SetQueryBatch(reqs)
	check("gov(retry(flaky))", answers2, err2, gov2.Spent(), 6)
}

// TestRetryPointBatchSuffixSplice: the same splice applies to point
// rounds.
func TestRetryPointBatchSuffixSplice(t *testing.T) {
	d, _, _ := retryReqs(t)
	ids := d.IDs()[:6]
	truth := NewTruthOracle(d)
	want := make([][]int, len(ids))
	for i, id := range ids {
		var err error
		want[i], err = truth.PointQuery(id)
		if err != nil {
			t.Fatal(err)
		}
	}

	flaky := &prefixFlakyBatch{inner: NewTruthOracle(d), failEvery: 4}
	gov := NewBudgetedOracle(flaky, Budget{MaxHITs: 100})
	r := withRetry(context.Background(), gov, RetryPolicy{MaxAttempts: 3}, rand.New(rand.NewSource(3)), 1)
	labels, err := AsBatchOracle(r, 1).PointQueryBatch(ids)
	if err != nil {
		t.Fatalf("err = %v, want success", err)
	}
	if len(labels) != len(want) {
		t.Fatalf("%d label vectors, want %d", len(labels), len(want))
	}
	for i := range want {
		if len(labels[i]) != len(want[i]) {
			t.Fatalf("labels[%d] = %v, want %v", i, labels[i], want[i])
		}
		for k := range want[i] {
			if labels[i][k] != want[i][k] {
				t.Errorf("labels[%d][%d] = %d, want %d", i, k, labels[i][k], want[i][k])
			}
		}
	}
	if got := gov.Spent().Point; got != 9 {
		t.Errorf("charged %d point HITs, want 9", got)
	}
}

// TestRetryBackoffCancels: a cancelled context aborts a sleeping
// backoff promptly instead of posting another attempt (satellite fix:
// the backoff selects on ctx).
func TestRetryBackoffCancels(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{20, 2, 2, 2}, rand.New(rand.NewSource(52)))
	g := pattern.GroupsForAttribute(s, 0)[1]
	flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 1} // every call fails

	ctx, cancel := context.WithCancel(context.Background())
	r := withRetry(ctx, flaky, RetryPolicy{MaxAttempts: 5, Backoff: time.Hour}, rand.New(rand.NewSource(4)), 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.SetQuery(d.IDs()[:2], g)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; backoff slept through the context", elapsed)
	}
}

// TestNormalizeBudget: negative caps clamp to zero (disabled), exactly
// mirroring normalizeParallelism — a negative cap means "nothing left",
// never a hidden unlimited budget.
func TestNormalizeBudget(t *testing.T) {
	cases := []struct {
		name string
		in   Budget
		want Budget
	}{
		{"zero stays zero", Budget{}, Budget{}},
		{"negative MaxHITs", Budget{MaxHITs: -1}, Budget{}},
		{"negative MaxPoint", Budget{MaxPoint: -7}, Budget{}},
		{"negative MaxSet", Budget{MaxSet: -3}, Budget{}},
		{"negative MaxReverseSet", Budget{MaxReverseSet: -2}, Budget{}},
		{"negative MaxSpend", Budget{MaxSpend: -0.5}, Budget{}},
		{
			"mixed keeps positive caps",
			Budget{MaxHITs: 10, MaxPoint: -4, MaxSpend: 2.5},
			Budget{MaxHITs: 10, MaxSpend: 2.5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := normalizeBudget(tc.in); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("normalizeBudget(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}

	// An all-negative budget is inactive: the stack's governor counts
	// spend but never refuses.
	d, _ := dataset.BinaryWithMinority(40, 10, rand.New(rand.NewSource(4)))
	st, err := NewStack(NewTruthOracle(d), StackConfig{Budget: &Budget{MaxHITs: -5, MaxSpend: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if b := st.Governor.Budget(); b.Active() {
		t.Errorf("negative caps left an active budget: %+v", b)
	}
	if _, err := AsBatchOracle(st.Top, 1).PointQueryBatch(d.IDs()); err != nil {
		t.Errorf("inactive budget refused a query: %v", err)
	}
	if s := st.Governor.Spent(); s.Point != len(d.IDs()) || s.Denied != 0 {
		t.Errorf("inactive governor spent %+v, want %d points and no denials", s, len(d.IDs()))
	}
	// The constructor clamps too.
	if b := NewBudgetedOracle(deadOracle{}, Budget{MaxHITs: -3}).Budget(); b.MaxHITs != 0 {
		t.Errorf("NewBudgetedOracle kept negative MaxHITs: %+v", b)
	}
}
