package main

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
)

// Small shapes of the workloads, so the tests run in seconds.
func smallBare() bareParams {
	return bareParams{
		N: 3_000, Tau: 20, SetSize: 10, Minorities: []int{12, 10}, PoolSize: 12,
		ClsN: 2_000, ClsTP: 300, ClsFP: 10, Parallelism: 2,
	}
}

func smallStacked() stackedParams {
	return stackedParams{
		N: 1_500, Tau: 20, SetSize: 10, Minorities: []int{12, 10}, PoolSize: 15,
		AdversaryRate: 0.3, Probes: 8, Parallelism: 2, DSIterations: 20,
	}
}

func smallService() serviceParams {
	p := defaultServiceParams()
	p.MinJobs = cycle
	p.N = 400
	p.Minority, p.ClsMinority, p.ClsTP = 12, 30, 20
	p.Tau = 10
	return p
}

// TestTracingChangesNothingBare runs one audit-bare iteration with and
// without the platform shim: verdicts and HIT counts must not move.
func TestTracingChangesNothingBare(t *testing.T) {
	in, err := newBareInputs(smallBare(), 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sp *span) bareOutcome {
		r, err := in.rig()
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := in.audit(r, sp)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(nil)
	var sp span
	traced := run(&sp)
	if err := traced.equal(plain); err != nil {
		t.Fatalf("traced run diverged: %v", err)
	}
	if err := in.planted(plain); err != nil {
		t.Fatal(err)
	}
	if sp.calls == 0 || sp.setReqs+sp.points != plain.hits {
		t.Fatalf("shim saw %d calls and %d requests, the platforms committed %d HITs",
			sp.calls, sp.setReqs+sp.points, plain.hits)
	}
}

// TestTracingChangesNothingStacked runs one audit-stacked job with and
// without a shim above every layer and the journal wrapper: verdicts,
// HIT counts, Dawid-Skene truth, the resumed audit and the journal's
// bytes must all be identical.
func TestTracingChangesNothingStacked(t *testing.T) {
	in, err := newStackedInputs(smallStacked(), 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(i int, live, resume *stackSpans) stackedOutcome {
		r, err := in.rig(i)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := in.iterate(r, live, resume)
		if err != nil {
			t.Fatal(err)
		}
		if out.journalSum, out.journalBytes, err = hashFile(r.path); err != nil {
			t.Fatal(err)
		}
		return out
	}
	need := run(0, nil, nil)
	in.maxHITs = 2 * need.hits
	plain := run(1, nil, nil)
	if err := plain.equal(need); err != nil {
		t.Fatalf("capped governor changed the audit: %v", err)
	}
	var live, resume stackSpans
	traced := run(2, &live, &resume)
	if err := traced.equal(plain); err != nil {
		t.Fatalf("traced run diverged: %v", err)
	}
	if live.platform.setReqs+live.platform.points != plain.hits {
		t.Fatalf("platform shim saw %d requests, the platform committed %d HITs",
			live.platform.setReqs+live.platform.points, plain.hits)
	}
	if resume.journal.calls == 0 || resume.platform.calls != 0 {
		t.Fatalf("resume: journal shim saw %d calls, platform shim %d (want >0 and 0)",
			resume.journal.calls, resume.platform.calls)
	}
}

// TestShimForwardsPartialPrefix puts a shim over a budget governor that
// runs out mid-batch: the committed prefix's answers and the exhaustion
// error must pass through unchanged.
func TestShimForwardsPartialPrefix(t *testing.T) {
	d, err := dataset.BinaryWithMinority(100, 30, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	ids := d.IDs()
	var reqs []core.SetRequest
	for i := 0; i < 5; i++ {
		reqs = append(reqs, core.SetRequest{IDs: ids[i*5 : (i+1)*5], Group: g, Reverse: i%2 == 1})
	}
	governor := func(max int) *core.BudgetedOracle {
		return core.NewBudgetedOracle(core.NewTruthOracle(d), core.Budget{MaxHITs: max})
	}

	wantAns, wantErr := governor(3).SetQueryBatch(reqs)
	if len(wantAns) != 3 || !errors.Is(wantErr, core.ErrBudgetExhausted) {
		t.Fatalf("governor returned %d answers and %v; the test needs a 3-answer prefix", len(wantAns), wantErr)
	}
	var sp span
	gotAns, gotErr := newShim(governor(3), 2, &sp).SetQueryBatch(reqs)
	if !reflect.DeepEqual(gotAns, wantAns) || !errors.Is(gotErr, core.ErrBudgetExhausted) || gotErr.Error() != wantErr.Error() {
		t.Fatalf("through the shim: %v, %v; direct: %v, %v", gotAns, gotErr, wantAns, wantErr)
	}

	points := ids[:4]
	wantLabels, wantErr := governor(2).PointQueryBatch(points)
	gotLabels, gotErr := newShim(governor(2), 2, &sp).PointQueryBatch(points)
	if len(wantLabels) != 2 || !reflect.DeepEqual(gotLabels, wantLabels) ||
		!errors.Is(gotErr, core.ErrBudgetExhausted) || gotErr.Error() != wantErr.Error() {
		t.Fatalf("through the shim: %v, %v; direct: %v, %v", gotLabels, gotErr, wantLabels, wantErr)
	}
	if sp.calls != 2 || sp.setReqs != 5 || sp.points != 4 {
		t.Fatalf("span %+v, want 2 calls, 5 set and 4 point requests", &sp)
	}
}

// TestWorkloadsSmall runs every workload at a small shape, untraced and
// traced: every check passes and every metric is reported.
func TestWorkloadsSmall(t *testing.T) {
	type workload struct {
		name string
		run  func(config) (*report, error)
	}
	for _, w := range []workload{
		{"audit-bare", func(c config) (*report, error) { return auditBare(c, smallBare()) }},
		{"audit-stacked", func(c config) (*report, error) { return auditStacked(c, smallStacked()) }},
		{"service-mixed", func(c config) (*report, error) { return serviceMixed(c, smallService()) }},
	} {
		for _, trace := range []bool{false, true} {
			rep, err := w.run(config{workload: w.name, seed: 3, seconds: 0.3, trace: trace, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d checks failed", w.name, trace, rep.failed, rep.attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := rep.metrics[d.name]; !ok {
					t.Errorf("%s trace=%v: no %s", w.name, trace, d.name)
				}
			}
			if trace && rep.metrics["trace.unattributed_share"] > 0.10 && w.name != "service-mixed" {
				t.Errorf("%s: %.3f of the audit time is unattributed", w.name, rep.metrics["trace.unattributed_share"])
			}
		}
	}
}
