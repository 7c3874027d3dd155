package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// runIntersectional audits the dataset at the given parallelism with a
// fresh identically-seeded oracle and RNG.
func runIntersectional(t *testing.T, d *dataset.Dataset, n, tau, parallelism int, seed int64) (*IntersectionalResult, TaskCounts) {
	t.Helper()
	o := NewTruthOracle(d)
	res, err := IntersectionalCoverage(o, d.IDs(), n, tau, d.Schema(),
		MultipleOptions{Rng: rand.New(rand.NewSource(seed)), Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return res, o.Tasks()
}

// resolvedCount tallies verdicts the resolution phase had to re-audit.
func resolvedCount(res *IntersectionalResult) int {
	n := 0
	for _, v := range res.Verdicts {
		if v.Resolved {
			n++
		}
	}
	return n
}

// TestParallelResolutionEquivalenceRandomized: across random
// compositions and thresholds, the parallel resolution phase must
// reproduce the sequential engine exactly — verdicts, MUPs, resolution
// task counts, and the oracle's task tally — and the sweep must
// actually exercise the resolution phase (straddling patterns).
func TestParallelResolutionEquivalenceRandomized(t *testing.T) {
	schemas := []*pattern.Schema{genderRaceSchema(), threeBinarySchema()}
	rng := rand.New(rand.NewSource(71))
	resolvedTotal := 0
	for trial := 0; trial < 30; trial++ {
		s := schemas[trial%len(schemas)]
		counts := make([]int, s.NumSubgroups())
		for i := range counts {
			switch rng.Intn(3) {
			case 0:
				counts[i] = rng.Intn(12) // rare: feeds uncovered super-groups
			case 1:
				counts[i] = 35 + rng.Intn(30) // near tau: straddling territory
			default:
				counts[i] = 120 + rng.Intn(200) // common
			}
		}
		tau := 25 + rng.Intn(50)
		seed := rng.Int63()
		d := dataset.MustFromCounts(s, counts, rng)

		base, baseTasks := runIntersectional(t, d, 50, tau, 1, seed)
		resolvedTotal += resolvedCount(base)
		checkAgainstGroundTruth(t, d, base, tau)
		for _, par := range []int{4, 16} {
			res, tasks := runIntersectional(t, d, 50, tau, par, seed)
			if !reflect.DeepEqual(res.Verdicts, base.Verdicts) {
				t.Errorf("trial %d parallelism %d: verdicts diverged", trial, par)
			}
			if !reflect.DeepEqual(res.MUPs, base.MUPs) {
				t.Errorf("trial %d parallelism %d: MUPs %v, want %v", trial, par, res.MUPs, base.MUPs)
			}
			if res.Tasks != base.Tasks || res.ResolutionTasks != base.ResolutionTasks {
				t.Errorf("trial %d parallelism %d: tasks %d/%d, want %d/%d",
					trial, par, res.Tasks, res.ResolutionTasks, base.Tasks, base.ResolutionTasks)
			}
			if tasks != baseTasks {
				t.Errorf("trial %d parallelism %d: oracle counts %v, want %v", trial, par, tasks, baseTasks)
			}
		}
	}
	if resolvedTotal == 0 {
		t.Fatal("randomized sweep never exercised the resolution phase; compositions too easy")
	}
}

// TestParallelResolutionDeterminism: one seed must produce
// byte-identical intersectional results at every parallelism level, on
// a composition guaranteed to straddle: the rare female leaves form an
// uncovered super-group (joint count 9), and male-white sits at 45, so
// the X-white interval [45, 54] brackets tau = 50 and forces a
// resolution re-audit.
func TestParallelResolutionDeterminism(t *testing.T) {
	s := genderRaceSchema()
	counts := make([]int, s.NumSubgroups())
	set := func(g, r, c int) {
		counts[pattern.SubgroupIndex(s, pattern.MustPattern(s, g, r))] = c
	}
	set(0, 0, 45)  // male-white: uncovered alone, exact 45
	set(1, 0, 3)   // female-white: rare
	set(0, 1, 300) // male-black
	set(1, 1, 2)   // female-black: rare
	set(0, 2, 200) // male-hispanic
	set(1, 2, 2)   // female-hispanic: rare
	set(0, 3, 150) // male-asian
	set(1, 3, 2)   // female-asian: rare
	d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(72)))

	repr := func(r *IntersectionalResult) string {
		return fmt.Sprintf("%+v|%+v|%d|%d", r.Verdicts, r.MUPs, r.ResolutionTasks, r.Tasks)
	}
	base, baseTasks := runIntersectional(t, d, 50, 50, 1, 73)
	if resolvedCount(base) == 0 {
		t.Fatal("composition did not trigger the resolution phase")
	}
	baseRepr := repr(base)
	for _, par := range []int{4, 16} {
		res, tasks := runIntersectional(t, d, 50, 50, par, 73)
		if got := repr(res); got != baseRepr {
			t.Errorf("parallelism %d diverged:\n%s\nvs\n%s", par, got, baseRepr)
		}
		if tasks != baseTasks {
			t.Errorf("parallelism %d: oracle counts %v, want %v", par, tasks, baseTasks)
		}
	}
}

// TestParallelResolutionPropagatesErrors: a failing re-audit must
// surface instead of leaving Unknown verdicts, at any parallelism.
func TestParallelResolutionPropagatesErrors(t *testing.T) {
	s := genderRaceSchema()
	counts := make([]int, s.NumSubgroups())
	for i := range counts {
		counts[i] = 15
	}
	d := dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(74)))
	for _, par := range []int{1, 8} {
		flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 6}
		_, err := IntersectionalCoverage(flaky, d.IDs(), 10, 20, s,
			MultipleOptions{Rng: rand.New(rand.NewSource(9)), Parallelism: par})
		if !errors.Is(err, ErrTransient) {
			t.Errorf("parallelism %d: err = %v, want transient failure propagated", par, err)
		}
	}
}

// retryProbeDataset is the gender × race dataset of the retry probes:
// 15 objects in every subgroup.
func retryProbeDataset() *dataset.Dataset {
	s := genderRaceSchema()
	counts := make([]int, s.NumSubgroups())
	for i := range counts {
		counts[i] = 15
	}
	return dataset.MustFromCounts(s, counts, rand.New(rand.NewSource(75)))
}

// retryProbeAudit runs the retry probes' audit over o: an
// Intersectional-Coverage audit of d (n 10, tau 20) that retries each
// query up to 3 times.
func retryProbeAudit(o Oracle, d *dataset.Dataset, par int, lockstep bool) (*IntersectionalResult, error) {
	return IntersectionalCoverage(o, d.IDs(), 10, 20, d.Schema(), MultipleOptions{
		Rng:         rand.New(rand.NewSource(10)),
		Parallelism: par,
		Lockstep:    lockstep,
		Retry:       RetryPolicy{MaxAttempts: 3},
	})
}

// TestResolutionHonorsRetryPolicy: a retry budget must absorb
// transient failures in the resolution phase too — not just in the
// leaf audits — sequentially and in parallel, with verdicts matching
// ground truth. A transcript recorder over the flaky oracle must not
// change that, and records each answered query once.
func TestResolutionHonorsRetryPolicy(t *testing.T) {
	d := retryProbeDataset()
	for _, tc := range []struct {
		par      int
		recorded bool
	}{{1, false}, {8, false}, {1, true}, {8, true}} {
		var o Oracle = &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 6}
		var rec *RecordingOracle
		if tc.recorded {
			rec = NewRecordingOracle(o)
			o = rec
		}
		res, err := retryProbeAudit(o, d, tc.par, false)
		if err != nil {
			t.Fatalf("parallelism %d, recorded %v: %v (retries should absorb transient failures end to end)", tc.par, tc.recorded, err)
		}
		checkAgainstGroundTruth(t, d, res, 20)
		if rec != nil {
			if got, want := len(rec.Records()), res.Multiple.Tasks+res.ResolutionTasks; got != want {
				t.Errorf("parallelism %d: %d records, want one per answered query (%d)", tc.par, got, want)
			}
		}
	}
}

// TestRetryMatrixAcrossStacks: a retry policy absorbs transient
// failures through every middleware stack NewStack builds, at every
// width. Attempts count per query, so a round wider than the failure
// period keeps retrying while its answered prefix grows. Journal and
// trust run in lockstep, as the server runs them. The cells at width 2
// and 8 share FlakyOracle's call counter across a pool, so which query
// fails depends on scheduling. They pass because a failed query is
// retried on its own: two lone tries in a row take consecutive calls,
// and FailEvery 6 never fails both.
func TestRetryMatrixAcrossStacks(t *testing.T) {
	d := retryProbeDataset()
	stacks := []struct {
		name string
		cfg  func() StackConfig
	}{
		{"plain", func() StackConfig { return StackConfig{} }},
		{"cache", func() StackConfig { return StackConfig{Cache: true} }},
		{"budget", func() StackConfig { return StackConfig{Budget: &Budget{MaxHITs: 1 << 20}} }},
		{"journal", func() StackConfig { return StackConfig{Journal: &memJournal{}} }},
		{"trust", func() StackConfig {
			return StackConfig{Trust: &TrustConfig{Probes: GoldProbes(d, pattern.SubgroupGroups(d.Schema()), 3, 1)}}
		}},
	}
	for _, st := range stacks {
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", st.name, par), func(t *testing.T) {
				cfg := st.cfg()
				stack, err := NewStack(&FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 6}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := retryProbeAudit(stack.Top, d, par, cfg.Journal != nil || cfg.Trust != nil)
				if err != nil {
					t.Fatalf("%v (retries should absorb transient failures through the stack)", err)
				}
				checkAgainstGroundTruth(t, d, res, 20)
			})
		}
	}
}
