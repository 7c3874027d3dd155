package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// The testing/quick properties below are the library's load-bearing
// invariants expressed as single predicates over a random seed.

func TestQuickGroupCoverageVerdict(t *testing.T) {
	f := func(seed int64, nRaw, fRaw, tauRaw, setRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%1500
		fem := int(fRaw) % (n + 1)
		tau := 1 + int(tauRaw)%70
		setSize := 1 + int(setRaw)%90
		d, err := dataset.BinaryWithMinority(n, fem, rng)
		if err != nil {
			return false
		}
		g := dataset.Female(d.Schema())
		res, err := GroupCoverage(NewTruthOracle(d), d.IDs(), setSize, tau, g)
		if err != nil {
			return false
		}
		if res.Covered != (fem >= tau) {
			return false
		}
		if !res.Covered && (!res.Exact || res.Count != fem) {
			return false
		}
		return res.Tasks <= UpperBoundTasksLog2(n, setSize, tau)
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBaseCoverageAgreesWithGroupCoverage(t *testing.T) {
	f := func(seed int64, nRaw, fRaw, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%800
		fem := int(fRaw) % (n + 1)
		tau := 1 + int(tauRaw)%50
		d, err := dataset.BinaryWithMinority(n, fem, rng)
		if err != nil {
			return false
		}
		g := dataset.Female(d.Schema())
		gc, err := GroupCoverage(NewTruthOracle(d), d.IDs(), 32, tau, g)
		if err != nil {
			return false
		}
		base, err := BaseCoverage(NewTruthOracle(d), d.IDs(), tau, g)
		if err != nil {
			return false
		}
		return gc.Covered == base.Covered
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundsAgreesWithSequential(t *testing.T) {
	f := func(seed int64, nRaw, fRaw, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%800
		fem := int(fRaw) % (n + 1)
		tau := 1 + int(tauRaw)%50
		d, err := dataset.BinaryWithMinority(n, fem, rng)
		if err != nil {
			return false
		}
		g := dataset.Female(d.Schema())
		seq, err := GroupCoverage(NewTruthOracle(d), d.IDs(), 32, tau, g)
		if err != nil {
			return false
		}
		par, err := GroupCoverageRounds(context.Background(), NewTruthOracle(d), d.IDs(), 32, tau, g, 4)
		if err != nil {
			return false
		}
		return seq.Covered == par.Covered
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelMultipleEquivalence is the concurrent engine's
// contract: across randomized schemas, compositions, thresholds and
// set sizes, MultipleCoverage with Parallelism 8 produces identical
// verdicts, identical exact counts, identical SuperAudits, and
// identical oracle TaskCounts to the sequential engine for the same
// seed. 120 randomized instances keep the suite above the 100-instance
// bar without slowing it down.
func TestQuickParallelMultipleEquivalence(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		sigma := 2 + rng.Intn(4)
		values := make([]string, sigma)
		for i := range values {
			values[i] = string(rune('a' + i))
		}
		s := pattern.MustSchema(pattern.Attribute{Name: "g", Values: values})
		counts := make([]int, sigma)
		counts[0] = 100 + rng.Intn(900)
		for i := 1; i < sigma; i++ {
			counts[i] = rng.Intn(120)
		}
		tau := 1 + rng.Intn(60)
		setSize := 1 + rng.Intn(60)
		d := dataset.MustFromCounts(s, counts, rng)
		groups := pattern.GroupsForAttribute(s, 0)
		seed := rng.Int63()

		seqOracle := NewTruthOracle(d)
		seq, err := MultipleCoverage(seqOracle, d.IDs(), setSize, tau, groups,
			MultipleOptions{Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		parOracle := NewTruthOracle(d)
		par, err := MultipleCoverage(parOracle, d.IDs(), setSize, tau, groups,
			MultipleOptions{Rng: rand.New(rand.NewSource(seed)), Parallelism: 8})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("trial %d (sigma=%d tau=%d n=%d counts=%v): engines diverged\nseq: %+v\npar: %+v",
				trial, sigma, tau, setSize, counts, seq, par)
		}
		if seqOracle.Tasks() != parOracle.Tasks() {
			t.Fatalf("trial %d: oracle counts %v vs %v", trial, seqOracle.Tasks(), parOracle.Tasks())
		}
	}
}

func TestQuickPartitionCleanCount(t *testing.T) {
	// Full partition drains always report the exact member count.
	f := func(seed int64, nRaw, fRaw, setRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%400
		fem := int(fRaw) % (n + 1)
		setSize := 1 + int(setRaw)%60
		d, err := dataset.BinaryWithMinority(n, fem, rng)
		if err != nil {
			return false
		}
		g := dataset.Female(d.Schema())
		confirmed, drained, _, err := partitionWalk(NewTruthOracle(d), false, 1, d.IDs(), setSize, n+1, g)
		return err == nil && drained && confirmed == fem
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
