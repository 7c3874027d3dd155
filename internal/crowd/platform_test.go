package crowd

import (
	"math/rand"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/imagegen"
	"imagecvg/internal/pattern"
)

func testDataset(t *testing.T, n, females int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := dataset.BinaryWithMinority(n, females, rng)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func perfectConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Profile = PoolProfile{Size: 9, SlipMin: 0, SlipMax: 0, PerceptNoise: 0}
	return cfg
}

func TestNewPlatformValidation(t *testing.T) {
	d := testDataset(t, 10, 2, 1)
	if _, err := NewPlatform(nil, DefaultConfig(1)); err == nil {
		t.Error("nil dataset: want error")
	}
	cfg := DefaultConfig(1)
	cfg.Assignments = 0
	if _, err := NewPlatform(d, cfg); err == nil {
		t.Error("0 assignments: want error")
	}
	cfg = DefaultConfig(1)
	cfg.Profile.Size = 0
	if _, err := NewPlatform(d, cfg); err == nil {
		t.Error("empty pool: want error")
	}
	// Impossible rating thresholds leave no eligible workers.
	cfg = DefaultConfig(1)
	cfg.Rating = &RatingFilter{MinApprovalPercent: 101}
	if _, err := NewPlatform(d, cfg); err == nil {
		t.Error("no eligible workers: want error")
	}
}

func TestSetQueryPerfectWorkers(t *testing.T) {
	d := testDataset(t, 60, 6, 2)
	p, err := NewPlatform(d, perfectConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fem := dataset.Female(d.Schema())
	// Whole dataset contains females.
	got, err := p.SetQuery(d.IDs(), fem)
	if err != nil || !got {
		t.Fatalf("SetQuery(all) = %v, %v; want true", got, err)
	}
	// A set of only males must answer no.
	var males []dataset.ObjectID
	for i := 0; i < d.Size(); i++ {
		if o := d.At(i); o.Labels[0] == 0 {
			males = append(males, o.ID)
		}
	}
	got, err = p.SetQuery(males, fem)
	if err != nil || got {
		t.Fatalf("SetQuery(males) = %v, %v; want false", got, err)
	}
	// Reverse query: males set contains non-females -> yes.
	got, err = p.ReverseSetQuery(males, fem)
	if err != nil || !got {
		t.Fatalf("ReverseSetQuery(males, female) = %v, %v; want true", got, err)
	}
	// Reverse query over females only -> no.
	var fems []dataset.ObjectID
	for i := 0; i < d.Size(); i++ {
		if o := d.At(i); o.Labels[0] == 1 {
			fems = append(fems, o.ID)
		}
	}
	got, err = p.ReverseSetQuery(fems, fem)
	if err != nil || got {
		t.Fatalf("ReverseSetQuery(females, female) = %v, %v; want false", got, err)
	}
}

func TestPointQueryPerfectWorkers(t *testing.T) {
	d := testDataset(t, 20, 5, 4)
	p, err := NewPlatform(d, perfectConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Size(); i++ {
		o := d.At(i)
		labels, err := p.PointQuery(o.ID)
		if err != nil {
			t.Fatal(err)
		}
		if labels[0] != o.Labels[0] {
			t.Fatalf("PointQuery(%d) = %v, want %v", o.ID, labels, o.Labels)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	d := testDataset(t, 10, 2, 6)
	cfg := perfectConfig(7)
	cfg.SetSizeLimit = 5
	p, err := NewPlatform(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fem := dataset.Female(d.Schema())
	if _, err := p.SetQuery(nil, fem); err == nil {
		t.Error("empty set: want error")
	}
	if _, err := p.SetQuery(d.IDs(), fem); err == nil {
		t.Error("set beyond limit: want error")
	}
	if _, err := p.SetQuery([]dataset.ObjectID{999}, fem); err == nil {
		t.Error("unknown id: want error")
	}
	if _, err := p.PointQuery(999); err == nil {
		t.Error("unknown id: want error")
	}
}

func TestLedgerAccounting(t *testing.T) {
	d := testDataset(t, 30, 3, 8)
	p, err := NewPlatform(d, perfectConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	fem := dataset.Female(d.Schema())
	ids := d.IDs()
	mustQuery := func() {
		t.Helper()
		if _, err := p.SetQuery(ids[:10], fem); err != nil {
			t.Fatal(err)
		}
	}
	mustQuery()
	mustQuery()
	if _, err := p.PointQuery(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReverseSetQuery(ids[:3], fem); err != nil {
		t.Fatal(err)
	}
	snap := p.Ledger().Snapshot()
	if snap.SetHITs != 2 || snap.PointHITs != 1 || snap.ReverseSetHITs != 1 || snap.TotalHITs != 4 {
		t.Errorf("ledger = %+v", snap)
	}
	if snap.Assignments != 12 {
		t.Errorf("assignments = %d, want 12", snap.Assignments)
	}
	wantCost := 12 * 0.10
	if diff := snap.WorkerCost - wantCost; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("worker cost = %f, want %f", snap.WorkerCost, wantCost)
	}
	if diff := snap.PlatformFee - wantCost*0.20; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("fee = %f", snap.PlatformFee)
	}
	if diff := snap.TotalCost - wantCost*1.20; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("total = %f", snap.TotalCost)
	}
	if snap.String() == "" {
		t.Error("snapshot string empty")
	}
	for _, k := range []QueryKind{-1, 3, 9} {
		if n := p.Ledger().HITs(k); n != 0 {
			t.Errorf("HITs(%v) = %d, want 0", k, n)
		}
	}
	p.Ledger().Reset()
	if p.Ledger().TotalHITs() != 0 || p.Ledger().WorkerCost() != 0 || p.Ledger().HITs(SetQuery) != 0 {
		t.Error("reset did not clear ledger")
	}
}

func TestNoisyWorkersMajorityVoteStillCorrect(t *testing.T) {
	// With the default profile (about 1-2 % slip), a 3-way majority
	// vote should essentially never be wrong: the paper observed 1.36 %
	// raw errors and zero flipped verdicts over 220 HITs.
	d := testDataset(t, 200, 40, 10)
	cfg := DefaultConfig(11)
	p, err := NewPlatform(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fem := dataset.Female(d.Schema())
	ids := d.IDs()
	wrong := 0
	const trials = 150
	for i := 0; i < trials; i++ {
		lo := (i * 13) % (len(ids) - 10)
		sub := ids[lo : lo+10]
		truth := false
		for _, id := range sub {
			l, _ := d.TrueLabels(id)
			if fem.Matches(l) {
				truth = true
				break
			}
		}
		got, err := p.SetQuery(sub, fem)
		if err != nil {
			t.Fatal(err)
		}
		if got != truth {
			wrong++
		}
	}
	if wrong > trials/50 {
		t.Errorf("majority vote wrong on %d/%d set queries", wrong, trials)
	}
}

func TestQualificationFiltersSpammers(t *testing.T) {
	d := testDataset(t, 20, 4, 12)
	cfg := DefaultConfig(13)
	cfg.Profile = PoolProfile{Size: 40, SlipMin: 0.0, SlipMax: 0.02, PerceptNoise: 10, SpammerFraction: 0.5}
	cfg.Qualification = DefaultQualification()
	p, err := NewPlatform(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly half the pool are spammers with 45 % slip; a 10-question
	// 80 %-pass test should reject most of them.
	if p.EligibleWorkers() >= p.PoolSize()*8/10 {
		t.Errorf("qualification kept %d/%d workers; expected to reject most spammers",
			p.EligibleWorkers(), p.PoolSize())
	}
	if p.EligibleWorkers() == 0 {
		t.Error("qualification rejected everyone")
	}
}

func TestRatingFilter(t *testing.T) {
	f := DefaultRating()
	good := &Worker{ApprovalPercent: 99, ApprovedHITs: 1000}
	bad := &Worker{ApprovalPercent: 80, ApprovedHITs: 1000}
	few := &Worker{ApprovalPercent: 99, ApprovedHITs: 10}
	if !f.Eligible(good) || f.Eligible(bad) || f.Eligible(few) {
		t.Error("rating filter wrong")
	}
}

func TestQualificationValidation(t *testing.T) {
	d := testDataset(t, 5, 1, 14)
	r, err := imagegen.NewRenderer(d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{rng: rand.New(rand.NewSource(1))}
	bad := &QualificationTest{Questions: 0, PassFraction: 0.5}
	if _, err := bad.Administer(w, r, rand.New(rand.NewSource(2))); err == nil {
		t.Error("0 questions: want error")
	}
}

func TestDrawWithSmallPool(t *testing.T) {
	d := testDataset(t, 10, 2, 15)
	cfg := perfectConfig(16)
	cfg.Profile.Size = 2 // fewer workers than assignments=3
	p, err := NewPlatform(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := p.draw()
	if len(ws) != 3 {
		t.Errorf("draw returned %d workers, want 3 (with replacement)", len(ws))
	}
}

func TestQueryKindString(t *testing.T) {
	if PointQuery.String() != "point" || SetQuery.String() != "set" || ReverseSetQuery.String() != "reverse-set" {
		t.Error("QueryKind strings wrong")
	}
	if QueryKind(9).String() == "" {
		t.Error("unknown kind must still format")
	}
}

func TestNewPoolValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewPool(PoolProfile{Size: -1}, rng); err == nil {
		t.Error("negative size: want error")
	}
	if _, err := NewPool(PoolProfile{Size: 1, SlipMin: 0.5, SlipMax: 0.2}, rng); err == nil {
		t.Error("inverted slip range: want error")
	}
	if _, err := NewPool(PoolProfile{Size: 1, SpammerFraction: 2}, rng); err == nil {
		t.Error("spammer fraction > 1: want error")
	}
}

func TestCorruptOneAttrChangesExactlyOne(t *testing.T) {
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1", "2"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
	)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		in := []int{rng.Intn(3), rng.Intn(2)}
		out := append([]int(nil), in...)
		corruptOneAttrInPlace(out, s, rng)
		diff := 0
		for j := range in {
			if in[j] != out[j] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("corruptOneAttrInPlace changed %d attrs: %v -> %v", diff, in, out)
		}
	}
}

// TestPlatformBatchKeepsCommittedPrefix: a round whose request i fails
// has already drawn, perceived and charged requests 0..i-1, so the
// batch returns their answers with the error, the partial-prefix form
// of core.BatchOracle.
func TestPlatformBatchKeepsCommittedPrefix(t *testing.T) {
	d := testDataset(t, 60, 6, 2)
	fem := dataset.Female(d.Schema())
	unknown := dataset.ObjectID(1 << 30)

	p, err := NewPlatform(d, perfectConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	answers, err := p.SetQueryBatch([]core.SetRequest{
		{IDs: d.IDs(), Group: fem},
		{IDs: []dataset.ObjectID{unknown}, Group: fem},
	})
	if err == nil || len(answers) != 1 || !answers[0] {
		t.Errorf("set round: answers %v, err %v; want [true] and an error", answers, err)
	}
	if hits := p.Ledger().TotalHITs(); hits != 1 {
		t.Errorf("set round: ledger counts %d HITs, want 1", hits)
	}

	p, err = NewPlatform(d, perfectConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	first := d.At(0)
	labels, err := p.PointQueryBatch([]dataset.ObjectID{first.ID, unknown})
	if err == nil || len(labels) != 1 || labels[0][0] != first.Labels[0] {
		t.Errorf("point round: labels %v, err %v; want the first object's labels and an error", labels, err)
	}
	if hits := p.Ledger().TotalHITs(); hits != 1 {
		t.Errorf("point round: ledger counts %d HITs, want 1", hits)
	}
}
