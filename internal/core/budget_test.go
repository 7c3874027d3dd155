package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

func TestBudgetActive(t *testing.T) {
	cases := []struct {
		b    Budget
		want bool
	}{
		{Budget{}, false},
		{Budget{MaxHITs: 1}, true},
		{Budget{MaxPoint: 3}, true},
		{Budget{MaxSet: 3}, true},
		{Budget{MaxReverseSet: 3}, true},
		{Budget{MaxSpend: 0.5}, true},
	}
	for _, c := range cases {
		if got := c.b.Active(); got != c.want {
			t.Errorf("Active(%+v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestBudgetedOracleEnforcesCaps(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(60, 20, rand.New(rand.NewSource(1)))
	g := dataset.Female(d.Schema())
	gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: 3})
	for i := 0; i < 3; i++ {
		if _, err := gov.SetQuery(d.IDs()[:5], g); err != nil {
			t.Fatalf("query %d within budget failed: %v", i, err)
		}
	}
	if _, err := gov.SetQuery(d.IDs()[:5], g); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("4th query: err = %v, want ErrBudgetExhausted", err)
	}
	spent := gov.Spent()
	if spent.HITs() != 3 || spent.Set != 3 || spent.Denied != 1 {
		t.Errorf("spent = %+v, want 3 committed set HITs and 1 denial", spent)
	}
	if !gov.Exhausted() {
		t.Error("governor must report exhaustion after a denial")
	}
}

func TestBudgetedOraclePerKindAndSpendCaps(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(60, 20, rand.New(rand.NewSource(2)))
	g := dataset.Female(d.Schema())
	gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxPoint: 1})
	if _, err := gov.PointQuery(d.IDs()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := gov.PointQuery(d.IDs()[1]); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("point cap: err = %v", err)
	}
	// Other kinds stay unconstrained under a per-kind cap.
	if _, err := gov.SetQuery(d.IDs()[:3], g); err != nil {
		t.Fatalf("set query under point cap: %v", err)
	}

	// Spend cap with a size-dependent cost model: a 10-object set costs
	// 1.0, so two fit in 2.5 and the third is refused.
	cost := func(kind HITKind, setSize int) float64 { return 0.1 * float64(setSize) }
	gov = NewBudgetedOracle(NewTruthOracle(d), Budget{MaxSpend: 2.5, Cost: cost})
	for i := 0; i < 2; i++ {
		if _, err := gov.SetQuery(d.IDs()[:10], g); err != nil {
			t.Fatalf("spend query %d: %v", i, err)
		}
	}
	if _, err := gov.SetQuery(d.IDs()[:10], g); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spend cap: err = %v", err)
	}
	if s := gov.Spent(); math.Abs(s.Spend-2.0) > 1e-9 {
		t.Errorf("spend = %v, want 2.0", s.Spend)
	}
}

func TestBudgetedOracleBatchCommitsPrefix(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(60, 20, rand.New(rand.NewSource(3)))
	g := dataset.Female(d.Schema())
	gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: 2})
	reqs := make([]SetRequest, 5)
	for i := range reqs {
		reqs[i] = SetRequest{IDs: d.IDs()[i*5 : i*5+5], Group: g}
	}
	answers, err := gov.SetQueryBatch(reqs)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if len(answers) != 2 {
		t.Fatalf("committed prefix = %d answers, want 2", len(answers))
	}
	spent := gov.Spent()
	if spent.HITs() != 2 || spent.Denied != 3 {
		t.Errorf("spent = %+v, want 2 committed / 3 denied", spent)
	}
	// The inner oracle saw exactly the prefix.
	if inner := gov.inner.(*TruthOracle).Tasks().Set; inner != 2 {
		t.Errorf("inner oracle executed %d set queries, want 2", inner)
	}
}

func TestBudgetedOracleHeadroom(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(10, 3, rand.New(rand.NewSource(4)))
	gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: 5, MaxPoint: 2})
	if h := gov.Headroom(HITPoint, 1); h != 2 {
		t.Errorf("point headroom = %d, want 2 (kind cap binds)", h)
	}
	if h := gov.Headroom(HITSet, 10); h != 5 {
		t.Errorf("set headroom = %d, want 5 (total cap binds)", h)
	}
	if _, err := gov.PointQuery(d.IDs()[0]); err != nil {
		t.Fatal(err)
	}
	if h := gov.Headroom(HITPoint, 1); h != 1 {
		t.Errorf("point headroom after one query = %d, want 1", h)
	}
	if h := headroomOf(nil, HITPoint, 1); h != math.MaxInt {
		t.Errorf("nil governor headroom = %d, want unlimited", h)
	}
}

// TestGroupCoveragePartialOnExhaustion pins the partial-result
// convention: a budget cap is a stopping rule, not an error, and the
// returned count is the lower bound the committed answers prove.
func TestGroupCoveragePartialOnExhaustion(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(400, 120, rand.New(rand.NewSource(5)))
	g := dataset.Female(d.Schema())
	full, err := GroupCoverage(NewTruthOracle(d), d.IDs(), 20, 60, g)
	if err != nil {
		t.Fatal(err)
	}
	gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: full.Tasks / 2})
	res, err := GroupCoverage(gov, d.IDs(), 20, 60, g)
	if err != nil {
		t.Fatalf("exhaustion must not surface as an error: %v", err)
	}
	if !res.Exhausted || res.Covered || res.Exact {
		t.Fatalf("partial result = %+v, want Exhausted undecided", res)
	}
	if res.Tasks != full.Tasks/2 {
		t.Errorf("committed tasks = %d, want exactly the cap %d", res.Tasks, full.Tasks/2)
	}
	if res.Count > full.Count {
		t.Errorf("partial bound %d exceeds full audit count %d", res.Count, full.Count)
	}
}

// TestMultipleCoverageBudgetExhaustionDeterministicUnderLockstep is
// the core determinism claim: with a budget governor and lockstep,
// the exhaustion point, partial verdicts, committed task counts and
// governor spend are byte-identical at every Parallelism value.
func TestMultipleCoverageBudgetExhaustionDeterministicUnderLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(20261))
	for trial := 0; trial < 20; trial++ {
		s := pattern.MustSchema(pattern.Attribute{Name: "g", Values: []string{"a", "b", "c"}})
		counts := []int{120 + rng.Intn(100), rng.Intn(25), rng.Intn(25)}
		d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(rng.Int63())))
		groups := pattern.GroupsForAttribute(s, 0)
		tau := 5 + rng.Intn(15)
		maxHITs := 1 + rng.Intn(40)
		seed := rng.Int63()

		run := func(par int) string {
			gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: maxHITs})
			res, err := MultipleCoverage(gov, d.IDs(), 10, tau, groups, MultipleOptions{
				Rng:         rand.New(rand.NewSource(seed)),
				Parallelism: par,
				Lockstep:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v|%+v|%v|%d|%d|%d|%+v", res.Results, res.SuperAudits,
				res.Exhausted, res.SampleTasks, res.AuditTasks, res.Tasks, gov.Spent())
		}
		base := run(1)
		for _, par := range []int{2, 4, 16} {
			if got := run(par); got != base {
				t.Fatalf("trial %d (tau=%d cap=%d): P=%d diverged:\n%s\nvs\n%s",
					trial, tau, maxHITs, par, got, base)
			}
		}
	}
}

// TestMultipleCoverageUnbudgetedUnchanged guards against governance
// leaking into unbudgeted audits: with an inactive budget the result —
// Settled flags aside — must equal the ungoverned engine's.
func TestMultipleCoverageBudgetLargeCapMatchesUnbudgeted(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(300, 40, rand.New(rand.NewSource(6)))
	groups := []pattern.Group{dataset.Female(d.Schema()), dataset.Male(d.Schema())}
	run := func(b *Budget) *MultipleResult {
		st, err := NewStack(NewTruthOracle(d), StackConfig{Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		res, err := MultipleCoverage(st.Top, d.IDs(), 15, 30, groups, MultipleOptions{
			Rng: rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(nil)
	capped := run(&Budget{MaxHITs: 1 << 20})
	if fmt.Sprintf("%+v", free.Results) != fmt.Sprintf("%+v", capped.Results) ||
		free.Tasks != capped.Tasks || capped.Exhausted {
		t.Errorf("a non-binding budget changed the audit:\nfree   %+v tasks=%d\ncapped %+v tasks=%d",
			free.Results, free.Tasks, capped.Results, capped.Tasks)
	}
	for _, r := range free.Results {
		if !r.Settled {
			t.Errorf("completed audit left group %s unsettled", r.Group)
		}
	}
}

// TestClassifierBudgetNarrowingAndExhaustion exercises both narrowing
// paths of the batched engine: Label rounds shrink to the remaining
// headroom and the audit settles with a partial count on exhaustion,
// identically at every lockstep width.
func TestClassifierBudgetDeterministicUnderLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(20262))
	for trial := 0; trial < 15; trial++ {
		n := 150 + rng.Intn(150)
		f := 20 + rng.Intn(40)
		d, err := dataset.BinaryWithMinority(n, f, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Female(d.Schema())
		var predicted []dataset.ObjectID
		for i := 0; i < d.Size(); i++ {
			o := d.At(i)
			if g.Matches(o.Labels) != (rng.Intn(4) == 0) { // ~75% TP, some FP
				predicted = append(predicted, o.ID)
			}
		}
		if len(predicted) == 0 {
			continue
		}
		tau := 5 + rng.Intn(25)
		maxHITs := 1 + rng.Intn(30)
		seed := rng.Int63()

		run := func(par int) string {
			gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: maxHITs})
			res, err := ClassifierCoverage(gov, d.IDs(), predicted, 10, tau, g, ClassifierOptions{
				Rng:         rand.New(rand.NewSource(seed)),
				Parallelism: par,
				Lockstep:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v|%+v", res, gov.Spent())
		}
		base := run(1)
		for _, par := range []int{2, 4, 16} {
			if got := run(par); got != base {
				t.Fatalf("trial %d (tau=%d cap=%d): P=%d diverged:\n%s\nvs\n%s",
					trial, tau, maxHITs, par, got, base)
			}
		}
	}
}

// TestClassifierLabelRoundNarrowing pins the over-issue bound: with a
// budget governor, a Label round never posts more point queries than
// the remaining headroom, so the committed-plus-denied total stays
// within one query of the cap.
func TestClassifierLabelRoundNarrowing(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(300, 100, rand.New(rand.NewSource(8)))
	g := dataset.Female(d.Schema())
	// All-members predicted set with heavy FP so the Label strategy is
	// chosen (high estimated FP rate).
	var predicted []dataset.ObjectID
	for i := 0; i < d.Size(); i++ {
		predicted = append(predicted, d.At(i).ID)
	}
	cap := 25
	gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: cap})
	res, err := ClassifierCoverage(gov, d.IDs(), predicted, 10, 80, g, ClassifierOptions{
		Rng:      rand.New(rand.NewSource(9)),
		Lockstep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spent := gov.Spent()
	if spent.HITs() > cap {
		t.Fatalf("governor committed %d HITs over cap %d", spent.HITs(), cap)
	}
	if !res.Exhausted {
		t.Fatalf("audit under a %d-HIT cap must exhaust: %+v", cap, res)
	}
	// Narrowing keeps speculation tight: at most one refused round of
	// over-issue attempts beyond the cap.
	if spent.Denied > cap+1 {
		t.Errorf("denied %d queries — narrowing should have clipped the rounds near the cap", spent.Denied)
	}
}

// TestIntersectionalBudgetUnknownVerdicts: an exhausted intersectional
// audit keeps Unknown verdicts instead of inventing definite ones, and
// is deterministic across lockstep widths.
func TestIntersectionalBudgetExhaustion(t *testing.T) {
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
	)
	d := dataset.MustFromCounts(s, []int{50, 8, 30, 5}, rand.New(rand.NewSource(10)))
	run := func(par int, maxHITs int) (*IntersectionalResult, BudgetSpent) {
		gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: maxHITs})
		res, err := IntersectionalCoverage(gov, d.IDs(), 8, 10, s, MultipleOptions{
			Rng:         rand.New(rand.NewSource(11)),
			Parallelism: par,
			Lockstep:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, gov.Spent()
	}
	full, _ := run(1, 0)
	if full.Exhausted {
		t.Fatal("unlimited budget must not exhaust")
	}
	res, spent := run(1, full.Tasks/3)
	if !res.Exhausted {
		t.Fatalf("capped run at %d of %d tasks must exhaust", full.Tasks/3, full.Tasks)
	}
	if spent.HITs() > full.Tasks/3 {
		t.Fatalf("spent %d HITs over cap %d", spent.HITs(), full.Tasks/3)
	}
	unknown := 0
	for _, v := range res.Verdicts {
		if v.Coverage == pattern.Unknown {
			unknown++
			if v.Resolved {
				t.Errorf("pattern %s: Unknown verdict marked Resolved", v.Pattern)
			}
		}
	}
	if unknown == 0 {
		t.Error("an exhausted intersectional audit should leave Unknown verdicts")
	}
	base := fmt.Sprintf("%+v|%+v", res.Verdicts, spent)
	for _, par := range []int{2, 16} {
		r2, s2 := run(par, full.Tasks/3)
		if got := fmt.Sprintf("%+v|%+v", r2.Verdicts, s2); got != base {
			t.Fatalf("P=%d diverged:\n%s\nvs\n%s", par, got, base)
		}
	}
}

// TestSharedGovernorSpansAudits: consecutive audits through one
// stack share its governor, so one budget spans them the way a
// deployment's customer cap does — also with a journal above the
// governor.
func TestSharedGovernorSpansAudits(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(200, 60, rand.New(rand.NewSource(12)))
	groups := []pattern.Group{dataset.Female(d.Schema()), dataset.Male(d.Schema())}
	st, err := NewStack(NewTruthOracle(d), StackConfig{Budget: &Budget{MaxHITs: 30}, Journal: &memJournal{}})
	if err != nil {
		t.Fatal(err)
	}
	gov := st.Governor
	opts := MultipleOptions{Rng: rand.New(rand.NewSource(13)), Lockstep: st.Lockstep()}
	if _, err := MultipleCoverage(st.Top, d.IDs(), 10, 20, groups, opts); err != nil {
		t.Fatal(err)
	}
	first := gov.Spent().HITs()
	if first == 0 || first > 30 {
		t.Fatalf("first audit spent %d of 30", first)
	}
	opts.Rng = rand.New(rand.NewSource(14))
	if _, err := MultipleCoverage(st.Top, d.IDs(), 10, 20, groups, opts); err != nil {
		t.Fatal(err)
	}
	if total := gov.Spent().HITs(); total > 30 {
		t.Fatalf("shared governor exceeded its cap: %d HITs", total)
	} else if total < first {
		t.Fatalf("spend went backwards: %d then %d", first, total)
	}
}

// TestNormalizeParallelism pins the shared normalization rule: every
// engine treats non-positive widths as a single worker (rounds.go
// historically defaulted to a magic 8).
func TestNormalizeParallelism(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, 1}, {-1, 1}, {0, 1}, {1, 1}, {2, 2}, {8, 8}, {1024, 1024},
	}
	for _, c := range cases {
		if got := normalizeParallelism(c.in); got != c.want {
			t.Errorf("normalizeParallelism(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// GroupCoverageRounds at width 0 must behave exactly like width 1.
	d, _ := dataset.BinaryWithMinority(120, 30, rand.New(rand.NewSource(15)))
	g := dataset.Female(d.Schema())
	want, err := GroupCoverageRounds(NewTruthOracle(d), d.IDs(), 10, 20, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GroupCoverageRounds(NewTruthOracle(d), d.IDs(), 10, 20, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("width 0 diverged from width 1: %+v vs %+v", got, want)
	}
}

// TestCachePreservesGovernorPrefix pins the WithBudget-before-WithCache
// stacking (cache outermost, governor inside): when the governor
// admits only a prefix of a round, the cache must deliver — and cache —
// those paid answers instead of discarding them, honoring the
// BatchOracle partial-prefix contract.
func TestCachePreservesGovernorPrefix(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(60, 20, rand.New(rand.NewSource(16)))
	g := dataset.Female(d.Schema())
	gov := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: 2})
	cache := NewCachingOracle(gov)
	reqs := make([]SetRequest, 4)
	for i := range reqs {
		reqs[i] = SetRequest{IDs: d.IDs()[i*5 : i*5+5], Group: g}
	}
	answers, err := cache.SetQueryBatch(reqs)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if len(answers) != 2 {
		t.Fatalf("cache returned %d answers, want the 2-HIT committed prefix", len(answers))
	}
	if gov.Spent().HITs() != 2 {
		t.Fatalf("governor committed %d HITs, want 2", gov.Spent().HITs())
	}
	// The paid answers entered the cache: re-asking them costs nothing.
	before := gov.Spent().HITs()
	again, err := cache.SetQueryBatch(reqs[:2])
	if err != nil || len(again) != 2 {
		t.Fatalf("re-asking the committed prefix: answers=%d err=%v", len(again), err)
	}
	if gov.Spent().HITs() != before {
		t.Errorf("cache re-posted already-paid HITs: %d -> %d", before, gov.Spent().HITs())
	}

	// Point rounds behave identically.
	gov2 := NewBudgetedOracle(NewTruthOracle(d), Budget{MaxHITs: 1})
	cache2 := NewCachingOracle(gov2)
	labels, err := cache2.PointQueryBatch(d.IDs()[:3])
	if !errors.Is(err, ErrBudgetExhausted) || len(labels) != 1 {
		t.Fatalf("point prefix: labels=%d err=%v, want 1 committed answer", len(labels), err)
	}
	if relabels, err := cache2.PointQueryBatch(d.IDs()[:1]); err != nil || len(relabels) != 1 {
		t.Errorf("cached point answer lost: labels=%d err=%v", len(relabels), err)
	}
}
