package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// multipleRepr renders every field of a MultipleResult by value (fmt
// sorts map keys), so equal strings mean byte-identical results.
func multipleRepr(r *MultipleResult) string {
	return fmt.Sprintf("%+v|%+v|%+v|%+v|%d|%d|%d",
		r.Results, r.SuperAudits, r.Labeled, r.RemainingIDs,
		r.SampleTasks, r.AuditTasks, r.Tasks)
}

// TestLockstepMatchesSequentialEngine: with an order-independent
// oracle the lockstep scheduler must reproduce the sequential
// Algorithm 2 byte-for-byte at every Parallelism value — the property
// the golden-file harness regression rides on.
func TestLockstepMatchesSequentialEngine(t *testing.T) {
	s := raceSchema()
	groups := pattern.GroupsForAttribute(s, 0)
	compositions := [][]int{
		{9800, 10, 8, 6},      // effective: uncovered super-group
		{9000, 300, 250, 200}, // covered minorities
		{9500, 30, 28, 26},    // adversarial: covered super-group of uncovered minorities
		{9900, 12, 8, 80},     // mixed
	}
	for ci, counts := range compositions {
		d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(int64(190+ci))))
		base, baseTasks := runMultiple(t, d, groups, 50, 1, 7)
		baseRepr := multipleRepr(base)
		for _, par := range []int{0, 1, 4, 16} {
			o := NewTruthOracle(d)
			res, err := MultipleCoverage(o, d.IDs(), 50, 50, groups,
				MultipleOptions{Rng: rand.New(rand.NewSource(7)), Parallelism: par, Lockstep: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := multipleRepr(res); got != baseRepr {
				t.Errorf("composition %d: lockstep P=%d diverged from sequential engine:\n%s\nvs\n%s",
					ci, par, got, baseRepr)
			}
			if tasks := o.Tasks(); tasks != baseTasks {
				t.Errorf("composition %d: lockstep P=%d oracle counts %v, want %v", ci, par, tasks, baseTasks)
			}
		}
	}
}

// TestLockstepIntersectionalMatchesSequential: the resolution phase's
// lockstep dispatch must agree with the sequential engine too.
func TestLockstepIntersectionalMatchesSequential(t *testing.T) {
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
	)
	d := dataset.MustFromCounts(s, []int{500, 10, 300, 8}, rand.New(rand.NewSource(200)))
	seq, err := IntersectionalCoverage(NewTruthOracle(d), d.IDs(), 30, 30, s,
		MultipleOptions{Rng: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 16} {
		lock, err := IntersectionalCoverage(NewTruthOracle(d), d.IDs(), 30, 30, s,
			MultipleOptions{Rng: rand.New(rand.NewSource(8)), Parallelism: par, Lockstep: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Verdicts, lock.Verdicts) || !reflect.DeepEqual(seq.MUPs, lock.MUPs) {
			t.Errorf("P=%d: intersectional verdicts diverged under lockstep", par)
		}
		if seq.Tasks != lock.Tasks {
			t.Errorf("P=%d: tasks %d vs %d", par, seq.Tasks, lock.Tasks)
		}
	}
}

// sequenceOracle answers from ground truth but flips every flipEvery-th
// answer, counting calls globally — a deliberately order-DEPENDENT
// oracle in the spirit of the crowd platform's advancing RNG. It
// implements BatchOracle natively (batches execute in request order
// under one lock), which is the contract lockstep determinism rests
// on.
type sequenceOracle struct {
	truth     *TruthOracle
	flipEvery int

	mu    sync.Mutex
	calls int
}

func (o *sequenceOracle) answer(ids []dataset.ObjectID, g pattern.Group, reverse bool) (bool, error) {
	o.calls++
	var ans bool
	var err error
	if reverse {
		ans, err = o.truth.ReverseSetQuery(ids, g)
	} else {
		ans, err = o.truth.SetQuery(ids, g)
	}
	if err != nil {
		return false, err
	}
	if o.flipEvery > 0 && o.calls%o.flipEvery == 0 {
		ans = !ans
	}
	return ans, nil
}

func (o *sequenceOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.answer(ids, g, false)
}

func (o *sequenceOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.answer(ids, g, true)
}

func (o *sequenceOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	o.mu.Lock()
	o.calls++
	o.mu.Unlock()
	return o.truth.PointQuery(id)
}

func (o *sequenceOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	answers := make([]bool, len(reqs))
	for i, req := range reqs {
		var err error
		answers[i], err = o.answer(req.IDs, req.Group, req.Reverse)
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

func (o *sequenceOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	labels := make([][]int, len(ids))
	for i, id := range ids {
		var err error
		labels[i], err = o.PointQuery(id)
		if err != nil {
			return nil, err
		}
	}
	return labels, nil
}

// TestLockstepOrderDependentOracleIsParallelismInvariant: the point of
// the scheduler — an oracle whose answers depend on global call order
// still produces bit-identical audits at every Parallelism value under
// lockstep, because rounds commit in canonical order regardless of
// goroutine interleaving.
func TestLockstepOrderDependentOracleIsParallelismInvariant(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{900, 30, 28, 26}, rand.New(rand.NewSource(201)))
	groups := pattern.GroupsForAttribute(s, 0)
	var base string
	for i, par := range []int{1, 2, 4, 16} {
		o := &sequenceOracle{truth: NewTruthOracle(d), flipEvery: 9}
		res, err := MultipleCoverage(o, d.IDs(), 20, 40, groups,
			MultipleOptions{Rng: rand.New(rand.NewSource(9)), Parallelism: par, Lockstep: true})
		if err != nil {
			t.Fatal(err)
		}
		got := multipleRepr(res)
		if i == 0 {
			base = got
			continue
		}
		if got != base {
			t.Errorf("P=%d: order-dependent audit diverged under lockstep:\n%s\nvs\n%s", par, got, base)
		}
	}
}

// TestLockstepPenaltyBranch: the covered-penalty re-audits must fire
// and settle correctly through the lockstep scheduler.
func TestLockstepPenaltyBranch(t *testing.T) {
	s := raceSchema()
	counts := []int{9500, 30, 28, 26} // sum 84 >= tau 50: super covered, members not
	d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(202)))
	groups := pattern.GroupsForAttribute(s, 0)
	res, err := MultipleCoverage(NewTruthOracle(d), d.IDs(), 50, 50, groups,
		MultipleOptions{Rng: rand.New(rand.NewSource(11)), Parallelism: 8, NoSampling: true, Lockstep: true})
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

// TestLockstepRetryRecoversTransientFailures: retries re-post the
// failed query inside its round instead of aborting.
func TestLockstepRetryRecoversTransientFailures(t *testing.T) {
	s := raceSchema()
	counts := []int{400, 10, 60, 10}
	d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(203)))
	groups := pattern.GroupsForAttribute(s, 0)
	tau := 20
	for _, par := range []int{1, 8} {
		flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 7}
		res, err := MultipleCoverage(flaky, d.IDs(), 20, tau, groups, MultipleOptions{
			Rng:         rand.New(rand.NewSource(2)),
			Parallelism: par,
			Lockstep:    true,
			Retry:       RetryPolicy{MaxAttempts: 4},
		})
		if err != nil {
			t.Fatalf("P=%d: %v (retries should absorb transient failures)", par, err)
		}
		for gi, r := range res.Results {
			if want := counts[gi] >= tau; r.Covered != want {
				t.Errorf("P=%d group %d: covered=%v want %v", par, gi, r.Covered, want)
			}
		}
	}
}

// TestLockstepErrorIsDeterministic: a failing audit must surface the
// SAME error at every Parallelism value and on every run — the failed
// round delivers one error to every parked task, so no scheduling race
// can change which error wins.
func TestLockstepErrorIsDeterministic(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{400, 10, 10, 10}, rand.New(rand.NewSource(204)))
	groups := pattern.GroupsForAttribute(s, 0)
	var base string
	for rep := 0; rep < 5; rep++ {
		for _, par := range []int{1, 4, 16} {
			flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 23}
			_, err := MultipleCoverage(flaky, d.IDs(), 20, 20, groups,
				MultipleOptions{Rng: rand.New(rand.NewSource(1)), Parallelism: par, Lockstep: true})
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("P=%d: err = %v, want transient failure propagated", par, err)
			}
			if base == "" {
				base = err.Error()
			} else if err.Error() != base {
				t.Errorf("P=%d rep %d: error %q, want %q", par, rep, err, base)
			}
		}
	}
}

// TestRunBoundedSurfacesLowestIndexedError is the regression test for
// the scheduling-dependent error surfacing: when several tasks fail,
// the pool must keep running lower-indexed tasks after a failure and
// always return the lowest-indexed error — here task 2, even though
// task 5 fails first on every schedule.
func TestRunBoundedSurfacesLowestIndexedError(t *testing.T) {
	err2 := errors.New("task 2 failed")
	err5 := errors.New("task 5 failed")
	for rep := 0; rep < 25; rep++ {
		var ran sync.Map
		err := RunBounded(4, 10, func(i int) error {
			ran.Store(i, true)
			switch i {
			case 2:
				time.Sleep(2 * time.Millisecond) // fails late
				return err2
			case 5:
				return err5 // fails first
			}
			return nil
		})
		if !errors.Is(err, err2) {
			t.Fatalf("rep %d: err = %v, want %v (lowest-indexed failure)", rep, err, err2)
		}
		// Every task below the surfaced failure must have run — the
		// sequential engine would have paid for them too.
		for i := 0; i < 2; i++ {
			if _, ok := ran.Load(i); !ok {
				t.Errorf("rep %d: task %d below the failure never ran", rep, i)
			}
		}
	}
}

// TestRunBoundedStopsDispatchAboveFailure: tasks far above a failure
// must not start once the failure is known (doomed audits stop
// posting HITs), while success paths still run everything.
func TestRunBoundedStopsDispatchAboveFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran sync.Map
	_ = RunBounded(2, 1000, func(i int) error {
		ran.Store(i, true)
		if i == 0 {
			return boom
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	count := 0
	ran.Range(func(_, _ any) bool { count++; return true })
	if count > 900 {
		t.Errorf("%d of 1000 tasks ran after an index-0 failure; dispatch should stop", count)
	}
}

// goroutineProbe is a native BatchOracle over ground truth that notes
// the process's goroutine count inside every batch call.
type goroutineProbe struct {
	*TruthOracle
	max int
}

func (p *goroutineProbe) note() { p.max = max(p.max, runtime.NumGoroutine()) }

func (p *goroutineProbe) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	p.note()
	return p.TruthOracle.SetQueryBatch(reqs)
}

func (p *goroutineProbe) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	p.note()
	return p.TruthOracle.PointQueryBatch(ids)
}

// TestLockstepRoundsStartNoGoroutine: lockstep audits run their walks
// and rounds in the caller's goroutine. Over a native BatchOracle no
// round may find more goroutines alive than before the audit began.
// (Not parallel: other tests' goroutines would blur the count.)
func TestLockstepRoundsStartNoGoroutine(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{9500, 30, 28, 26}, rand.New(rand.NewSource(202)))
	groups := pattern.GroupsForAttribute(s, 0)
	two := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
	)
	d2 := dataset.MustFromCounts(two, []int{500, 10, 300, 8}, rand.New(rand.NewSource(200)))
	d3, err := dataset.BinaryWithMinority(2000, 300, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	female := dataset.Female(d3.Schema())
	audits := []struct {
		name  string
		ds    *dataset.Dataset
		audit func(o Oracle) error
	}{
		{"multiple", d, func(o Oracle) error {
			_, err := MultipleCoverage(o, d.IDs(), 50, 50, groups,
				MultipleOptions{Rng: rand.New(rand.NewSource(11)), Parallelism: 16, NoSampling: true})
			return err
		}},
		{"intersectional", d2, func(o Oracle) error {
			_, err := IntersectionalCoverage(o, d2.IDs(), 30, 30, two,
				MultipleOptions{Rng: rand.New(rand.NewSource(8)), Parallelism: 16})
			return err
		}},
		{"classifier", d3, func(o Oracle) error {
			_, err := ClassifierCoverage(o, d3.IDs(), predictedSet(d3, 250, 10), 15, 280, female,
				ClassifierOptions{Rng: rand.New(rand.NewSource(3)), Parallelism: 16})
			return err
		}},
	}
	for _, a := range audits {
		probe := &goroutineProbe{TruthOracle: NewTruthOracle(a.ds)}
		before := runtime.NumGoroutine()
		if err := a.audit(probe); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if probe.max == 0 {
			t.Fatalf("%s: no round reached the oracle", a.name)
		}
		if probe.max > before {
			t.Errorf("%s: %d goroutines alive during a round, %d before the audit", a.name, probe.max, before)
		}
	}
}

// TestModeDiscipline: every phase of every audit posts in its engine's
// mode. Over a native BatchOracle, sequential mode makes only
// single-query calls and lockstep mode only batch calls, in the
// Multiple-Coverage sampling phase and penalty re-audits, the
// Intersectional resolution walks, and the Classifier sample, Label,
// Partition and residual phases.
func TestModeDiscipline(t *testing.T) {
	s := raceSchema()
	d := dataset.MustFromCounts(s, []int{2000, 30, 28, 26}, rand.New(rand.NewSource(202)))
	groups := pattern.GroupsForAttribute(s, 0)
	two := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
	)
	d2 := dataset.MustFromCounts(two, []int{500, 20, 20, 8}, rand.New(rand.NewSource(200)))
	d3, err := dataset.BinaryWithMinority(2000, 300, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	female := dataset.Female(d3.Schema())
	// Each audit reports whether it reached the phases it is here for.
	audits := []struct {
		name  string
		ds    *dataset.Dataset
		audit func(o Oracle, lockstep bool, p int) (bool, error)
	}{
		{"multiple", d, func(o Oracle, lockstep bool, p int) (bool, error) {
			res, err := MultipleCoverage(o, d.IDs(), 50, 50, groups,
				MultipleOptions{Rng: rand.New(rand.NewSource(11)), Lockstep: lockstep, Parallelism: p})
			if err != nil {
				return false, err
			}
			penalty := false
			for _, a := range res.SuperAudits {
				penalty = penalty || len(a.GroupIndices) > 1 && a.Covered
			}
			return res.SampleTasks > 0 && penalty, nil
		}},
		{"intersectional", d2, func(o Oracle, lockstep bool, p int) (bool, error) {
			res, err := IntersectionalCoverage(o, d2.IDs(), 30, 30, two,
				MultipleOptions{Rng: rand.New(rand.NewSource(8)), Lockstep: lockstep, Parallelism: p})
			if err != nil {
				return false, err
			}
			return res.ResolutionTasks > 0, nil
		}},
		{"classifier-partition", d3, func(o Oracle, lockstep bool, p int) (bool, error) {
			res, err := ClassifierCoverage(o, d3.IDs(), predictedSet(d3, 250, 10), 15, 280, female,
				ClassifierOptions{Rng: rand.New(rand.NewSource(3)), Lockstep: lockstep, Parallelism: p})
			return res.Strategy == StrategyPartition && res.ResidualTasks > 0, err
		}},
		{"classifier-label", d3, func(o Oracle, lockstep bool, p int) (bool, error) {
			res, err := ClassifierCoverage(o, d3.IDs(), predictedSet(d3, 20, 180), 15, 280, female,
				ClassifierOptions{Rng: rand.New(rand.NewSource(4)), Lockstep: lockstep, Parallelism: p})
			return res.Strategy == StrategyLabel && res.ResidualTasks > 0, err
		}},
	}
	for _, a := range audits {
		for _, m := range []struct {
			name     string
			lockstep bool
			p        int
		}{{"sequential", false, 1}, {"lockstep", true, 1}, {"wide", false, 4}} {
			counter := &nativeBatchCounter{TruthOracle: NewTruthOracle(a.ds)}
			reached, err := a.audit(counter, m.lockstep, m.p)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.name, m.name, err)
			}
			if !reached {
				t.Fatalf("%s/%s: the audit skipped a phase this test covers", a.name, m.name)
			}
			posted, other := counter.batchRounds, counter.singles
			if !m.lockstep && m.p <= 1 {
				posted, other = other, posted
			}
			if posted == 0 || other != 0 {
				t.Errorf("%s/%s: %d single-query calls and %d batch calls", a.name, m.name, counter.singles, counter.batchRounds)
			}
		}
	}
}
