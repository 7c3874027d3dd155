package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// paritySeq is a mixed sequence of single queries: set, reverse-set and
// point queries, repeats the cache answers for free, and enough distinct
// HITs to run an 8-HIT budget dry halfway through.
var paritySeq = []struct {
	kind   string // "set", "rev" or "point"
	lo, hi int    // id range of a set query; lo is the point query's id
}{
	{"set", 0, 5}, {"rev", 0, 5}, {"point", 3, 0}, {"set", 0, 5}, {"point", 3, 0},
	{"set", 5, 12}, {"rev", 10, 20}, {"point", 7, 0}, {"point", 8, 0}, {"set", 5, 12},
	{"rev", 20, 30}, {"set", 30, 40}, {"point", 9, 0}, {"point", 10, 0}, {"set", 40, 50},
	{"rev", 40, 50}, {"point", 3, 0}, {"set", 0, 5}, {"rev", 10, 20}, {"point", 11, 0},
}

// paritySingleRun sends paritySeq through a fresh stack over a
// non-batching base, as single queries or as one-element rounds, and
// returns every observable outcome: answers, errors, the governor's
// ledger, the cache tally, the journal records and the trust report.
func paritySingleRun(t *testing.T, d *dataset.Dataset, cfg func() StackConfig, rounds bool) string {
	t.Helper()
	c := cfg()
	jnl := &memJournal{}
	if c.Journal != nil {
		c.Journal = jnl
	}
	st, err := NewStack(plainOracle{NewTruthOracle(d)}, c)
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	ids := d.IDs()
	var out strings.Builder
	for i, q := range paritySeq {
		var ans any
		var err error
		switch {
		case q.kind == "point" && rounds:
			var labels [][]int
			labels, err = st.Top.(BatchOracle).PointQueryBatch([]dataset.ObjectID{ids[q.lo]})
			if err == nil {
				ans = labels[0]
			}
		case q.kind == "point":
			ans, err = st.Top.PointQuery(ids[q.lo])
		case rounds:
			var answers []bool
			answers, err = st.Top.(BatchOracle).SetQueryBatch([]SetRequest{{IDs: ids[q.lo:q.hi], Group: g, Reverse: q.kind == "rev"}})
			if err == nil {
				ans = answers[0]
			}
		case q.kind == "rev":
			ans, err = st.Top.ReverseSetQuery(ids[q.lo:q.hi], g)
		default:
			ans, err = st.Top.SetQuery(ids[q.lo:q.hi], g)
		}
		if err != nil {
			ans = nil
		}
		fmt.Fprintf(&out, "%d %s: %v %v\n", i, q.kind, ans, err)
	}
	if st.Governor != nil {
		fmt.Fprintf(&out, "spent %+v\n", st.Governor.Spent())
	}
	if st.Cache != nil {
		fmt.Fprintf(&out, "cache %+v\n", st.Cache.Stats())
	}
	if st.Trust != nil {
		fmt.Fprintf(&out, "trust %+v\n", st.Trust.Report())
	}
	for _, rec := range jnl.recs {
		fmt.Fprintf(&out, "record %+v\n", rec)
	}
	return out.String()
}

// TestSingleQueriesMatchOneElementRounds pins that every middleware
// answers a single query exactly as it answers the same query posted
// as a one-element round: same answers and errors, same charges and
// denials, same cache tally and the same journal records.
func TestSingleQueriesMatchOneElementRounds(t *testing.T) {
	d, err := dataset.BinaryWithMinority(60, 20, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	trust := func() *TrustConfig {
		return &TrustConfig{Policy: TrustPolicy{ProbeEvery: 2}, Probes: GoldProbes(d, []pattern.Group{g}, 3, 1)}
	}
	stacks := []struct {
		name string
		cfg  func() StackConfig
	}{
		{"cache", func() StackConfig { return StackConfig{Cache: true} }},
		{"budget", func() StackConfig { return StackConfig{Budget: &Budget{MaxHITs: 8}} }},
		{"journal-over-budget", func() StackConfig {
			return StackConfig{Budget: &Budget{MaxHITs: 8}, Journal: &memJournal{}}
		}},
		{"trust", func() StackConfig { return StackConfig{Trust: trust()} }},
		{"all-four", func() StackConfig {
			return StackConfig{Budget: &Budget{MaxHITs: 8}, Journal: &memJournal{}, Trust: trust(), Cache: true}
		}},
	}
	for _, s := range stacks {
		t.Run(s.name, func(t *testing.T) {
			single := paritySingleRun(t, d, s.cfg, false)
			rounds := paritySingleRun(t, d, s.cfg, true)
			if single != rounds {
				t.Errorf("single queries and one-element rounds diverge:\n%s\nvs\n%s", single, rounds)
			}
			if c := s.cfg(); c.Budget != nil && !strings.Contains(single, ErrBudgetExhausted.Error()) {
				t.Errorf("the sequence never ran the budget dry:\n%s", single)
			}
		})
	}
}

// samplingGauge freezes the in-flight peak of the queries posted before
// the first set query: the sampling round of a MultipleCoverage audit,
// which is all point queries.
type samplingGauge struct {
	*gaugeOracle
	once sync.Once
	peak int64
}

func (s *samplingGauge) freeze() {
	s.once.Do(func() {
		s.gaugeOracle.mu.Lock()
		s.peak = s.gaugeOracle.max
		s.gaugeOracle.mu.Unlock()
	})
}

func (s *samplingGauge) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	s.freeze()
	return s.gaugeOracle.SetQuery(ids, g)
}

func (s *samplingGauge) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	s.freeze()
	return s.gaugeOracle.ReverseSetQuery(ids, g)
}

// TestAuditWidthReachesPlainBase: an audit's Parallelism reaches a
// non-batching base oracle through every middleware stack, so the
// sampling round overlaps its HITs' round-trips without exceeding the
// audit's width.
func TestAuditWidthReachesPlainBase(t *testing.T) {
	d, err := dataset.BinaryWithMinority(400, 40, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	groups := pattern.GroupsForAttribute(d.Schema(), 0)
	trust := &TrustConfig{Probes: GoldProbes(d, groups, 3, 1)}
	const width = 8
	for _, s := range []struct {
		name string
		cfg  StackConfig
	}{
		{"cache", StackConfig{Cache: true}},
		{"budget", StackConfig{Budget: &Budget{MaxHITs: 1 << 20}}},
		{"journal-over-budget", StackConfig{Budget: &Budget{MaxHITs: 1 << 20}, Journal: &memJournal{}}},
		{"trust", StackConfig{Trust: trust}},
		{"all-four", StackConfig{Budget: &Budget{MaxHITs: 1 << 20}, Journal: &memJournal{}, Trust: trust, Cache: true}},
	} {
		t.Run(s.name, func(t *testing.T) {
			gauge := &samplingGauge{gaugeOracle: &gaugeOracle{
				inner: DelayOracle{Inner: NewTruthOracle(d), Delay: time.Millisecond},
			}}
			st, err := NewStack(gauge, s.cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = MultipleCoverage(st.Top, d.IDs(), 20, 10, groups, MultipleOptions{
				Rng: rand.New(rand.NewSource(2)), Parallelism: width, Lockstep: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			gauge.freeze()
			if gauge.peak < 2 || gauge.peak > width {
				t.Errorf("sampling round peaked at %d in flight, want 2..%d", gauge.peak, width)
			}
		})
	}
}

// TestRecorderKeepsFailedRoundPrefix: a round that fails part-way
// through a recorder over a plain oracle still records the queries
// answered before the failure — HITs the crowd was paid for.
func TestRecorderKeepsFailedRoundPrefix(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 0, 1, 1, 0})
	rec := NewRecordingOracle(&FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 4})
	if _, err := AsBatchOracle(rec, 1).PointQueryBatch(d.IDs()); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want the fourth query's transient failure", err)
	}
	if got := len(rec.Records()); got != 3 {
		t.Errorf("%d records, want the 3 queries answered before the failure", got)
	}
}

// BenchmarkSequentialAuditThroughCache measures the sequential engine's
// single queries through a NewStack query cache over the truth oracle:
// one width-1 Multiple-Coverage audit per iteration through a fresh
// stack, as `cvgrun -cache` runs it. HITs/op is the audit's task
// count; divide allocs/op by it for allocations per HIT.
func BenchmarkSequentialAuditThroughCache(b *testing.B) {
	d, err := dataset.BinaryWithMinority(5000, 60, rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	groups := pattern.GroupsForAttribute(d.Schema(), 0)
	b.ReportAllocs()
	hits := 0
	for i := 0; i < b.N; i++ {
		st, err := NewStack(NewTruthOracle(d), StackConfig{Cache: true})
		if err != nil {
			b.Fatal(err)
		}
		res, err := MultipleCoverage(st.Top, d.IDs(), 10, 100, groups, MultipleOptions{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			b.Fatal(err)
		}
		hits += res.Tasks
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hits), "ns/HIT")
	b.ReportMetric(float64(hits)/float64(b.N), "HITs/op")
}

// BenchmarkSequentialClassifierAudit measures width-1
// Classifier-Coverage over the truth oracle, one audit per iteration:
// `partition` runs a precise classifier (Partition cleanup), `label`
// an imprecise one (Label cleanup plus the residual hunt). HITs/op is
// the audit's task count; divide allocs/op by it for allocations per
// HIT.
func BenchmarkSequentialClassifierAudit(b *testing.B) {
	d, err := dataset.BinaryWithMinority(20000, 600, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	for _, bc := range []struct {
		name   string
		tp, fp int
	}{{"partition", 500, 20}, {"label", 300, 400}} {
		predicted := d.PredictedSet(g, bc.tp, bc.fp)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			o := NewTruthOracle(d)
			hits := 0
			for i := 0; i < b.N; i++ {
				res, err := ClassifierCoverage(o, d.IDs(), predicted, 20, 450, g, ClassifierOptions{Rng: rand.New(rand.NewSource(1))})
				if err != nil {
					b.Fatal(err)
				}
				hits += res.Tasks
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hits), "ns/HIT")
			b.ReportMetric(float64(hits)/float64(b.N), "HITs/op")
		})
	}
}
