package imagecvg

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"imagecvg/internal/core"
)

func TestPlanRepairFromAudit(t *testing.T) {
	schema, err := NewSchema(
		Attribute{Name: "gender", Values: []string{"male", "female"}},
		Attribute{Name: "race", Values: []string{"white", "black"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var labels [][]int
	add := func(g, r, n int) {
		for i := 0; i < n; i++ {
			labels = append(labels, []int{g, r})
		}
	}
	add(0, 0, 300)
	add(1, 0, 250)
	add(0, 1, 100)
	add(1, 1, 5)
	ds, err := NewDataset(schema, labels)
	if err != nil {
		t.Fatal(err)
	}
	auditor := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(4)
	audit, err := auditor.AuditIntersectional(ds.IDs(), schema)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := auditor.PlanRepair(schema, audit)
	if err != nil {
		t.Fatal(err)
	}
	// female-black lacks 45 objects; everything else is fine.
	if plan.Total != 45 {
		t.Errorf("plan total = %d, want 45:\n%s", plan.Total, plan)
	}
	if !strings.Contains(plan.String(), "gender=female AND race=black") {
		t.Errorf("plan = %s", plan)
	}
	// Executing the plan against the true counts repairs coverage.
	if !plan.Verify(ds.SubgroupCounts(), 50) {
		t.Error("plan does not repair the true composition")
	}
}

func TestAuditGroupBatched(t *testing.T) {
	ds, err := GenerateBinary(5_000, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	auditor := NewAuditor(NewTruthOracle(ds), 50, 50)
	res, err := auditor.AuditGroupBatched(ds.IDs(), FemaleGroup(ds.Schema()), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Error("200 >= 50 must be covered")
	}
	if res.Rounds < 1 || res.Rounds > 7 {
		t.Errorf("rounds = %d, want within 1..1+log2(50)", res.Rounds)
	}
}

// TestAuditGroupBatchedHonorsContext: the batched audit checks the
// auditor's context before every round, so a cancelled auditor posts
// no HIT.
func TestAuditGroupBatchedHonorsContext(t *testing.T) {
	ds, err := GenerateBinary(5_000, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecordingOracle(NewTruthOracle(ds))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	auditor := NewAuditor(rec, 50, 50).WithContext(ctx)
	_, err = auditor.AuditGroupBatched(ds.IDs(), FemaleGroup(ds.Schema()), 8)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := len(rec.Records()); n != 0 {
		t.Errorf("a cancelled audit posted %d HITs, want 0", n)
	}
}

func TestAuditGroupTraced(t *testing.T) {
	ds, err := GenerateBinary(64, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	auditor := NewAuditor(NewTruthOracle(ds), 8, 16)
	res, trace, err := auditor.AuditGroupTraced(ds.IDs(), FemaleGroup(ds.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Tasks() != res.Tasks {
		t.Errorf("trace tasks %d != result tasks %d", trace.Tasks(), res.Tasks)
	}
	if !strings.Contains(trace.DOT(), "digraph") {
		t.Error("DOT rendering broken")
	}
}

func TestAuditSampledFacade(t *testing.T) {
	ds, err := GenerateBinary(10_000, 5_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	auditor := NewAuditor(NewTruthOracle(ds), 50, 50).WithSeed(12)
	res, err := auditor.AuditSampled(ds.IDs(), FemaleGroup(ds.Schema()), 0.05, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Covered {
		t.Errorf("half-female dataset must decide covered: %+v", res)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestTranscriptRoundTripFacade(t *testing.T) {
	ds, err := GenerateBinary(400, 30, 13)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecordingOracle(NewTruthOracle(ds))
	auditor := NewAuditor(rec, 20, 25)
	orig, err := auditor.AuditGroup(ds.IDs(), FemaleGroup(ds.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	replayAuditor := NewAuditor(NewReplayOracle(rec.Records()), 20, 25)
	again, err := replayAuditor.AuditGroup(ds.IDs(), FemaleGroup(ds.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if again.Covered != orig.Covered || again.Tasks != orig.Tasks {
		t.Errorf("replay diverged: %+v vs %+v", again, orig)
	}
}

func TestNewRepairPlanFacade(t *testing.T) {
	s := GenderSchema()
	plan, err := NewRepairPlan(s, []int{100, 10}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != 40 {
		t.Errorf("plan total = %d, want 40", plan.Total)
	}
}

// TestTranscriptReplayConcurrentEngine records intersectional audits on
// the concurrent engine and replays each transcript with the same
// settings and no retries: lockstep rounds must record and replay in
// request order, so every replay reproduces the original's MUPs and
// task count. A retried recording over a flaky oracle must replay too:
// a retry re-posts only the unanswered suffix of its round, so the
// recorder sees the queries of a failure-free run, in the same order.
func TestTranscriptReplayConcurrentEngine(t *testing.T) {
	schema, err := NewSchema(
		Attribute{Name: "a", Values: []string{"a0", "a1", "a2"}},
		Attribute{Name: "b", Values: []string{"b0", "b1", "b2"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DatasetFromCounts(schema, []int{400, 30, 300, 20, 500, 45, 10, 350, 60}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, retried := range []bool{false, true} {
		for seed := int64(0); seed < 20; seed++ {
			var o Oracle = NewTruthOracle(ds)
			var policy RetryPolicy
			if retried {
				o = &core.FlakyOracle{Inner: o, FailEvery: 5}
				policy = RetryPolicy{MaxAttempts: 4}
			}
			rec := NewRecordingOracle(o)
			orig, err := NewAuditor(rec, 50, 25).WithSeed(seed).WithParallelism(4).
				WithRetry(policy).AuditIntersectional(ds.IDs(), schema)
			if err != nil {
				t.Fatalf("retried %v, seed %d: %v", retried, seed, err)
			}
			replay := NewReplayOracle(rec.Records())
			again, err := NewAuditor(replay, 50, 25).WithSeed(seed).WithParallelism(4).AuditIntersectional(ds.IDs(), schema)
			if err != nil {
				t.Fatalf("retried %v, seed %d: replay failed: %v", retried, seed, err)
			}
			if !reflect.DeepEqual(again.MUPs, orig.MUPs) || again.Tasks != orig.Tasks {
				t.Errorf("retried %v, seed %d: replay diverged: MUPs %v tasks %d, recorded MUPs %v tasks %d",
					retried, seed, again.MUPs, again.Tasks, orig.MUPs, orig.Tasks)
			}
			if n := replay.Remaining(); n != 0 {
				t.Errorf("retried %v, seed %d: replay left %d recorded answers unused", retried, seed, n)
			}
		}
	}
}
