package crowd

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// The platform is a native batch oracle: whole rounds post under one
// lock and answer in request order.
var _ core.BatchOracle = (*Platform)(nil)

// buildPlatform returns an identically-seeded platform + dataset pair.
func buildPlatform(t *testing.T, platformSeed int64) (*Platform, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(58))
	d, err := dataset.BinaryWithMinority(300, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(d, DefaultConfig(platformSeed))
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

// batchRequests slices the dataset into a mixed round of set and
// reverse-set queries.
func batchRequests(d *dataset.Dataset) []core.SetRequest {
	g := dataset.Female(d.Schema())
	ids := d.IDs()
	var reqs []core.SetRequest
	for i := 0; i+10 <= len(ids); i += 10 {
		reqs = append(reqs, core.SetRequest{IDs: ids[i : i+10], Group: g, Reverse: i%3 == 0})
	}
	return reqs
}

// TestPlatformBatchDeterminism: identically-seeded platforms must
// answer the same batch identically, and a batch must equal the same
// queries issued one by one — the property that makes batched audit
// rounds reproducible at any caller parallelism.
func TestPlatformBatchDeterminism(t *testing.T) {
	p1, d := buildPlatform(t, 59)
	p2, _ := buildPlatform(t, 59)
	p3, _ := buildPlatform(t, 59)
	reqs := batchRequests(d)

	a1, err := p1.SetQueryBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p2.SetQueryBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("identically-seeded batches diverged")
	}
	if p1.Ledger().Snapshot() != p2.Ledger().Snapshot() {
		t.Errorf("ledgers diverged: %v vs %v", p1.Ledger().Snapshot(), p2.Ledger().Snapshot())
	}
	// One-by-one on a fresh platform reproduces the batch.
	for i, req := range reqs {
		var ans bool
		if req.Reverse {
			ans, err = p3.ReverseSetQuery(req.IDs, req.Group)
		} else {
			ans, err = p3.SetQuery(req.IDs, req.Group)
		}
		if err != nil {
			t.Fatal(err)
		}
		if ans != a1[i] {
			t.Fatalf("query %d: sequential %v, batch %v", i, ans, a1[i])
		}
	}
}

func TestPlatformPointQueryBatchDeterminism(t *testing.T) {
	p1, d := buildPlatform(t, 60)
	p2, _ := buildPlatform(t, 60)
	ids := d.IDs()[:40]
	l1, err := p1.PointQueryBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	l2 := make([][]int, len(ids))
	for i, id := range ids {
		l2[i], err = p2.PointQuery(id)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Error("batched point labels diverged from sequential")
	}
}

// TestGroupCoverageRoundsOverPlatformIsParallelismInvariant: the
// level-synchronous driver posts each tree level as one native batch,
// so even the order-dependent crowd platform reproduces byte-identical
// audits at every parallelism setting.
func TestGroupCoverageRoundsOverPlatformIsParallelismInvariant(t *testing.T) {
	var base core.RoundsResult
	for i, par := range []int{1, 4, 16} {
		p, d := buildPlatform(t, 61)
		res, err := core.GroupCoverageRounds(context.Background(), p, d.IDs(), 10, 40, dataset.Female(d.Schema()), par)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("parallelism %d: %+v, want %+v", par, res, base)
		}
	}
}

// TestPlatformConcurrentQueriesAreSerialized: concurrent callers must
// be race-free (the mutex serializes the shared platform and worker
// RNGs) and every HIT must be accounted exactly once.
func TestPlatformConcurrentQueriesAreSerialized(t *testing.T) {
	p, d := buildPlatform(t, 62)
	g := dataset.Female(d.Schema())
	ids := d.IDs()

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lo := (w*perWorker + i) % (len(ids) - 10)
				if _, err := p.SetQuery(ids[lo:lo+10], g); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap := p.Ledger().Snapshot()
	if snap.TotalHITs != workers*perWorker {
		t.Errorf("ledger HITs = %d, want %d", snap.TotalHITs, workers*perWorker)
	}
}

// TestParallelMultipleCoverageOverPlatform: the concurrent engine can
// audit through the serialized crowd platform without races or errors
// and still reaches ground-truth verdicts on a clear-cut workload.
func TestParallelMultipleCoverageOverPlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d, err := dataset.BinaryWithMinority(400, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(d, DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	groups := []pattern.Group{dataset.Female(d.Schema()), dataset.Male(d.Schema())}
	res, err := core.MultipleCoverage(p, d.IDs(), 20, 50, groups,
		core.MultipleOptions{Rng: rand.New(rand.NewSource(65)), Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Covered {
		t.Error("10 females < tau 50 should be uncovered")
	}
	if !res.Results[1].Covered {
		t.Error("390 males >= tau 50 should be covered")
	}
}
