package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"imagecvg/internal/dataset"
)

// predictedSet builds a predicted-positive set with the given numbers
// of true positives (females) and false positives (males), drawn from
// the dataset in order.
func predictedSet(d *dataset.Dataset, tp, fp int) []dataset.ObjectID {
	return d.PredictedSet(dataset.Female(d.Schema()), tp, fp)
}

func TestClassifierCoveragePreciseClassifierUsesPartition(t *testing.T) {
	// FERET-like: many true positives, almost no false positives. The
	// sample sees ~0 % FP, picks partitioning, confirms tau quickly,
	// and beats standalone Group-Coverage by a wide margin.
	rng := rand.New(rand.NewSource(61))
	d, _ := dataset.BinaryWithMinority(994, 403, rng)
	g := dataset.Female(d.Schema())
	predicted := predictedSet(d, 201, 1)

	o := NewTruthOracle(d)
	res, err := ClassifierCoverage(o, d.IDs(), predicted, 50, 50, g,
		ClassifierOptions{Rng: rand.New(rand.NewSource(62))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyPartition {
		t.Errorf("strategy = %s, want partition (est FP %.2f)", res.Strategy, res.EstFPRate)
	}
	if !res.Covered {
		t.Error("403 females with tau 50 must be covered")
	}

	ob := NewTruthOracle(d)
	gc, err := GroupCoverage(ob, d.IDs(), 50, 50, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks >= gc.Tasks {
		t.Errorf("Classifier-Coverage %d tasks vs Group-Coverage %d: classifier should help",
			res.Tasks, gc.Tasks)
	}
}

func TestClassifierCoverageImpreciseClassifierUsesLabel(t *testing.T) {
	// UTKFace-like 20F case: classifier precision ~8 %; the audit must
	// switch to labeling and still reach the right (uncovered) verdict.
	rng := rand.New(rand.NewSource(63))
	d, _ := dataset.BinaryWithMinority(3000, 20, rng)
	g := dataset.Female(d.Schema())
	predicted := predictedSet(d, 8, 92)

	o := NewTruthOracle(d)
	res, err := ClassifierCoverage(o, d.IDs(), predicted, 50, 50, g,
		ClassifierOptions{Rng: rand.New(rand.NewSource(64))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyLabel {
		t.Errorf("strategy = %s, want label (est FP %.2f)", res.Strategy, res.EstFPRate)
	}
	if res.Covered {
		t.Error("20 females with tau 50 must be uncovered")
	}
	if !res.Exact || res.Count != 20 {
		t.Errorf("count = %d (exact=%v), want exactly 20", res.Count, res.Exact)
	}
}

func TestClassifierCoverageMatchesGroundTruthRandomized(t *testing.T) {
	// Property: whatever the classifier quality, the verdict matches
	// ground truth (the classifier may only change the cost).
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 60; trial++ {
		n := 200 + rng.Intn(2000)
		f := rng.Intn(n / 3)
		tau := 1 + rng.Intn(60)
		d, err := dataset.BinaryWithMinority(n, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Female(d.Schema())
		tp := rng.Intn(f + 1)
		fp := rng.Intn((n - f) / 2)
		predicted := predictedSet(d, tp, fp)
		o := NewTruthOracle(d)
		res, err := ClassifierCoverage(o, d.IDs(), predicted, 1+rng.Intn(99), tau, g,
			ClassifierOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		want := f >= tau
		if res.Covered != want {
			t.Fatalf("trial %d (N=%d f=%d tau=%d tp=%d fp=%d strategy=%s): covered=%v want %v",
				trial, n, f, tau, tp, fp, res.Strategy, res.Covered, want)
		}
		if res.Covered && res.Count < tau {
			t.Fatalf("trial %d: covered with count %d < tau %d", trial, res.Count, tau)
		}
		if !res.Covered && res.Count > f {
			t.Fatalf("trial %d: count %d exceeds true %d", trial, res.Count, f)
		}
		if res.Tasks != res.SampleTasks+res.CleanupTasks+res.ResidualTasks {
			t.Fatalf("trial %d: task breakdown inconsistent: %+v", trial, res)
		}
	}
}

func TestClassifierCoverageEmptyPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	d, _ := dataset.BinaryWithMinority(500, 60, rng)
	g := dataset.Female(d.Schema())
	o := NewTruthOracle(d)
	res, err := ClassifierCoverage(o, d.IDs(), nil, 50, 50, g, ClassifierOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyNone {
		t.Errorf("strategy = %s, want none", res.Strategy)
	}
	if !res.Covered {
		t.Error("60 >= 50 must be covered")
	}
	if res.SampleTasks != 0 || res.CleanupTasks != 0 {
		t.Errorf("fallback must not sample: %+v", res)
	}
}

func TestClassifierCoverageAllPredictedFalsePositives(t *testing.T) {
	// Pathological classifier: only false positives. Label strategy
	// verifies none; the residual Group-Coverage must still find the
	// real members among the rest.
	rng := rand.New(rand.NewSource(67))
	d, _ := dataset.BinaryWithMinority(400, 30, rng)
	g := dataset.Female(d.Schema())
	predicted := predictedSet(d, 0, 80)
	o := NewTruthOracle(d)
	res, err := ClassifierCoverage(o, d.IDs(), predicted, 20, 25, g, ClassifierOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyLabel {
		t.Errorf("strategy = %s, want label", res.Strategy)
	}
	if !res.Covered {
		t.Error("30 >= 25 must be covered via residual search")
	}
}

func TestClassifierCoveragePerfectRecall(t *testing.T) {
	// Classifier finds every female with a bit of noise; partition
	// confirms tau within G and the audit ends without touching D-G.
	rng := rand.New(rand.NewSource(68))
	d, _ := dataset.BinaryWithMinority(2000, 200, rng)
	g := dataset.Female(d.Schema())
	predicted := predictedSet(d, 200, 4)
	o := NewTruthOracle(d)
	res, err := ClassifierCoverage(o, d.IDs(), predicted, 50, 50, g, ClassifierOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered || res.ResidualTasks != 0 {
		t.Errorf("want covered with zero residual tasks: %+v", res)
	}
}

func TestClassifierCoverageValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	d, _ := dataset.BinaryWithMinority(20, 5, rng)
	g := dataset.Female(d.Schema())
	o := NewTruthOracle(d)
	ids := d.IDs()

	if _, err := ClassifierCoverage(nil, ids, nil, 5, 5, g, ClassifierOptions{Rng: rng}); err == nil {
		t.Error("nil oracle: want error")
	}
	if _, err := ClassifierCoverage(o, ids, nil, 5, 5, g, ClassifierOptions{}); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := ClassifierCoverage(o, ids, []dataset.ObjectID{999}, 5, 5, g, ClassifierOptions{Rng: rng}); err == nil {
		t.Error("predicted not in dataset: want error")
	}
	if _, err := ClassifierCoverage(o, ids, []dataset.ObjectID{ids[0], ids[0]}, 5, 5, g, ClassifierOptions{Rng: rng}); err == nil {
		t.Error("duplicate predicted: want error")
	}
	if _, err := ClassifierCoverage(o, ids, nil, 0, 5, g, ClassifierOptions{Rng: rng}); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := ClassifierCoverage(o, ids, nil, 5, -1, g, ClassifierOptions{Rng: rng}); err == nil {
		t.Error("tau<0: want error")
	}
	if _, err := ClassifierCoverage(o, ids, nil, 5, 5, g, ClassifierOptions{Rng: rng, SampleFraction: 2}); err == nil {
		t.Error("sample fraction 2: want error")
	}
	if _, err := ClassifierCoverage(o, ids, nil, 5, 5, g, ClassifierOptions{Rng: rng, FPRateThreshold: -0.5}); err == nil {
		t.Error("negative threshold: want error")
	}
}

func TestClassifierCoveragePropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	d, _ := dataset.BinaryWithMinority(100, 20, rng)
	g := dataset.Female(d.Schema())
	predicted := predictedSet(d, 20, 5)
	flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 3}
	if _, err := ClassifierCoverage(flaky, d.IDs(), predicted, 10, 15, g, ClassifierOptions{Rng: rng}); err == nil {
		t.Error("want propagated transient error")
	}

	// At width 1 a hard error returns the partial result of the queries
	// answered before it, in whichever phase it strikes: the sample
	// (3 queries), the Partition walk or the Label walk.
	for _, c := range []struct {
		phase          string
		tp, fp, failAt int
		want           string
	}{
		{"sample", 20, 5, 2, "{Group:female Covered:false Count:0 Exact:false Strategy:none Exhausted:false EstFPRate:0 SampleTasks:1 CleanupTasks:0 ResidualTasks:0 Tasks:0}"},
		{"partition", 20, 1, 5, "{Group:female Covered:false Count:0 Exact:false Strategy:partition Exhausted:false EstFPRate:0 SampleTasks:3 CleanupTasks:1 ResidualTasks:0 Tasks:0}"},
		{"label", 5, 20, 6, "{Group:female Covered:false Count:0 Exact:false Strategy:label Exhausted:false EstFPRate:0.6666666666666667 SampleTasks:3 CleanupTasks:2 ResidualTasks:0 Tasks:0}"},
	} {
		flaky := &FlakyOracle{Inner: NewTruthOracle(d), FailEvery: c.failAt}
		res, err := ClassifierCoverage(flaky, d.IDs(), predictedSet(d, c.tp, c.fp), 10, 15, g,
			ClassifierOptions{Rng: rand.New(rand.NewSource(71))})
		if !errors.Is(err, ErrTransient) {
			t.Errorf("%s: err = %v, want the transient failure", c.phase, err)
		}
		type fields ClassifierResult // every field, not String()
		if got := fmt.Sprintf("%+v", fields(res)); got != c.want {
			t.Errorf("%s: partial result\n%s\nwant\n%s", c.phase, got, c.want)
		}
	}
}

func TestPartitionCleanExactWhenDrained(t *testing.T) {
	// Without early stop (stopAt beyond |G|), the sequential Partition
	// walk must isolate every false positive and report an exact
	// confirmed count.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		f := rng.Intn(n + 1)
		d, err := dataset.BinaryWithMinority(n, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Female(d.Schema())
		o := NewTruthOracle(d)
		confirmed, drained, tasks, err := partitionWalk(o, false, 1, d.IDs(), 1+rng.Intn(64), n+1, g)
		if err != nil {
			t.Fatal(err)
		}
		if !drained {
			t.Fatalf("trial %d: expected full drain", trial)
		}
		if confirmed != f {
			t.Fatalf("trial %d (N=%d f=%d): confirmed %d, want %d", trial, n, f, confirmed, f)
		}
		if tasks == 0 && n > 0 {
			t.Fatalf("trial %d: zero tasks", trial)
		}
	}
}

func TestPartitionCleanEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	d, _ := dataset.BinaryWithMinority(500, 450, rng)
	g := dataset.Female(d.Schema())
	o := NewTruthOracle(d)
	confirmed, drained, tasks, err := partitionWalk(o, false, 1, d.IDs(), 50, 50, g)
	if err != nil {
		t.Fatal(err)
	}
	if confirmed < 50 {
		t.Errorf("confirmed = %d, want >= 50", confirmed)
	}
	if drained {
		t.Error("early stop must not claim a full drain")
	}
	full, _, fullTasks, err := partitionWalk(o, false, 1, d.IDs(), 50, 501, g)
	if err != nil {
		t.Fatal(err)
	}
	if full != 450 {
		t.Errorf("full drain confirmed %d, want 450", full)
	}
	if tasks >= fullTasks {
		t.Errorf("early stop (%d tasks) should beat full drain (%d)", tasks, fullTasks)
	}
}

func TestPartitionCleanEmpty(t *testing.T) {
	d := binaryDataset(t, []int{1})
	o := NewTruthOracle(d)
	confirmed, drained, tasks, err := partitionWalk(o, false, 1, nil, 10, 5, female(d))
	if err != nil || confirmed != 0 || !drained || tasks != 0 {
		t.Errorf("empty partition = (%d,%v,%d,%v)", confirmed, drained, tasks, err)
	}
}

func TestClassifierResultString(t *testing.T) {
	d := binaryDataset(t, []int{1})
	r := ClassifierResult{Group: female(d), Strategy: StrategyLabel, Count: 3, Tasks: 7}
	if r.String() == "" {
		t.Error("empty string")
	}
	r.Covered = true
	if r.String() == "" {
		t.Error("empty string")
	}
}
