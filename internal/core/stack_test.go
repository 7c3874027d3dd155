package core

import (
	"fmt"
	"math/rand"
	"testing"

	"imagecvg/internal/dataset"
)

// TestNewStackOrder pins the one legal layer order and the derived
// Lockstep flag.
func TestNewStackOrder(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(60, 20, rand.New(rand.NewSource(1)))
	base := NewTruthOracle(d)
	st, err := NewStack(base, StackConfig{
		Budget: &Budget{MaxHITs: 10}, Journal: &memJournal{}, Trust: &TrustConfig{}, Cache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Top to bottom: cache -> trust -> journal -> governor -> base.
	if st.Top != Oracle(st.Cache) || st.Cache.inner != Oracle(st.Trust) ||
		st.Trust.inner != Oracle(st.Journal) || st.Journal.inner != Oracle(st.Governor) ||
		st.Journal.gov != st.Governor || st.Governor.inner != Oracle(base) {
		t.Fatalf("layers out of order: %+v", st)
	}
	if !st.Lockstep() {
		t.Error("a journal or trust layer must imply lockstep")
	}
	if governorOf(st.Top) != st.Governor {
		t.Error("governorOf did not find the governor under cache, trust and journal")
	}

	bare, err := NewStack(base, StackConfig{Budget: &Budget{}, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Lockstep() || bare.Trust != nil || bare.Journal != nil {
		t.Errorf("cache over governor needs no lockstep: %+v", bare)
	}
	if plain, _ := NewStack(base, StackConfig{}); plain.Top != Oracle(base) || governorOf(plain.Top) != nil {
		t.Errorf("empty config must return the base oracle: %+v", plain)
	}
	if _, err := NewStack(base, StackConfig{Trust: &TrustConfig{Probes: []GoldProbe{{}}}}); err == nil {
		t.Error("a probe without objects must fail the build")
	}
}

// TestClassifierNarrowsUnderJournal: the classifier engine narrows its
// speculative rounds to the governor's headroom wherever the stack puts
// the governor, so a journal above it changes neither the result nor
// the governor's ledger.
func TestClassifierNarrowsUnderJournal(t *testing.T) {
	d, _ := dataset.BinaryWithMinority(300, 40, rand.New(rand.NewSource(9)))
	g := dataset.Female(d.Schema())
	predicted := d.PredictedSet(g, 30, 25)
	run := func(cfg StackConfig) string {
		st, err := NewStack(NewTruthOracle(d), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ClassifierCoverage(st.Top, d.IDs(), predicted, 16, 30, g, ClassifierOptions{
			Rng: rand.New(rand.NewSource(13)), Parallelism: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v|%+v", res, st.Governor.Spent())
	}
	bare := run(StackConfig{Budget: &Budget{MaxHITs: 20}})
	journaled := run(StackConfig{Budget: &Budget{MaxHITs: 20}, Journal: &memJournal{}, Cache: true})
	if bare != journaled {
		t.Errorf("journal and cache above the governor changed the audit:\n%s\nvs\n%s", journaled, bare)
	}
}
