package sim

import (
	"testing"
)

// TestLockstepLatencyRetainsSpeedup is the acceptance gate for the
// lockstep engine's wall-clock: under per-HIT crowd latency the
// batched rounds must keep at least a 2x win over the sequential
// engine at parallelism 4 (measured ~2.5-3x; latency, not CPU, is the
// bottleneck, so the bound holds on single-core CI too), while issuing
// the identical task counts.
func TestLockstepLatencyRetainsSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-bound benchmark skipped in -short")
	}
	res, err := RunLockstepLatency(DefaultLatencyParams(), Options{Seed: 42, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0].Tasks != res.Rows[1].Tasks {
		t.Errorf("task counts diverged between engines: sequential %.1f, lockstep %.1f",
			res.Rows[0].Tasks, res.Rows[1].Tasks)
	}
	if s := res.Speedup(); s < 2.0 {
		t.Errorf("lockstep speedup %.2fx at parallelism %d, want >= 2x\n%s",
			s, res.Params.Parallelism, res)
	}
}

// TestSweepLockstepInvariant: the sweep's engine-parallelism axis runs
// the sequential engine at width 1 and lockstep rounds at width 4, and
// must render the identical grid and cache summaries on a 4-wide trial
// pool as on the sequential harness.
func TestSweepLockstepInvariant(t *testing.T) {
	p := SweepParams{
		Ns:             []int{2_000},
		Taus:           []int{25},
		Parallelisms:   []int{1, 4},
		SetSize:        50,
		MinorityCounts: []int{10, 8, 6},
	}
	seq, err := RunSweep(p, Options{Seed: 23, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSweep(p, Options{Seed: 23, Trials: 2, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Rows {
		if seq.Rows[i].Tasks != wide.Rows[i].Tasks {
			t.Errorf("row %d: tasks %.1f at trial-parallelism 1 vs %.1f at 4",
				i, seq.Rows[i].Tasks, wide.Rows[i].Tasks)
		}
	}
	if seq.Rows[0].Tasks != seq.Rows[1].Tasks {
		t.Errorf("engine width 1 vs 4: tasks %.1f vs %.1f", seq.Rows[0].Tasks, seq.Rows[1].Tasks)
	}
	if len(seq.Workloads) != len(wide.Workloads) {
		t.Fatalf("workload count diverged")
	}
	for i := range seq.Workloads {
		if seq.Workloads[i] != wide.Workloads[i] {
			t.Errorf("workload %d cache summary diverged: %+v vs %+v",
				i, seq.Workloads[i], wide.Workloads[i])
		}
	}
}
