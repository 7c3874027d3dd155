package sim

// Golden-file regression for the harness artifacts: the files under
// testdata/ hold each experiment's rendering produced by the
// SEQUENTIAL engine (trial-parallelism 1, engine width 1), and the
// test re-runs every experiment on a 4-wide trial pool with the audit
// engines at width 4, where they run in lockstep rounds — so one
// comparison pins three properties at once: the artifact itself (any
// behavioral drift fails), the trial-parallelism invariance of the
// harness, and the lockstep engine's exact agreement with the
// sequential engine on order-independent oracles.
//
// Regenerate after an intentional output change with
//
//	go test ./internal/sim -run TestGolden -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"imagecvg/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden files from the sequential engine")

// goldenExcluded lists artifacts whose rendering carries wall-clock
// measurements and therefore cannot be byte-compared across machines.
var goldenExcluded = map[string]string{
	"lockstep-latency":   "renders wall-clock; covered by the benchmark history gate instead",
	"journal-overhead":   "renders wall-clock; covered by the benchmark history gate instead",
	"audit-throughput":   "renders wall-clock and allocation counts; covered by the benchmark history gate instead",
	"service-throughput": "renders wall-clock and heap sizes; covered by the benchmark history gate instead",
}

// canonicalArtifact renders an experiment result without its
// wall-clock columns. Only the sweep carries timing in its table; its
// deterministic content (the grid's task counts and the cache
// summary) is re-rendered from the structured rows.
func canonicalArtifact(res fmt.Stringer) string {
	sr, ok := res.(*SweepResult)
	if !ok {
		return res.String()
	}
	t := stats.NewTable("N", "tau", "engine parallelism", "Multiple-Coverage tasks")
	for _, row := range sr.Rows {
		t.AddRow(row.N, row.Tau, row.Parallelism, fmt.Sprintf("%.1f", row.Tasks))
	}
	c := stats.NewTable("N", "tau", "cache hit rate", "paid HITs")
	for _, w := range sr.Workloads {
		c.AddRow(w.N, w.Tau, fmt.Sprintf("%.2f", w.HitRate), w.PaidTasks)
	}
	return fmt.Sprintf("Sweep (timing elided): N x tau x engine-parallelism (n=%d)\n%s\nshared query cache per workload:\n%s",
		sr.Params.SetSize, t.String(), c.String())
}

// TestGoldenClassifierEngineParallelismInvariant pins artifacts along
// the ENGINE-parallelism axis: table2, the classifier-strategy harness,
// the budget-frontier curve and the robustness-frontier grid must
// render the sequential golden byte-for-byte when the audit engines run
// their lockstep rounds at widths 2 and 16. For
// budget-frontier this is the acceptance property of budget governance
// itself: the exhaustion point — and with it every partial verdict in
// the curve — must not move with the pool width. For
// robustness-frontier it is the acceptance property of the trust
// middleware: the gold-probe schedule, the trust scores and the
// screening decisions must not move with the pool width either. (The
// main golden test varies trial parallelism; this one varies the pool
// inside each audit.)
func TestGoldenClassifierEngineParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-harness golden comparison skipped in -short")
	}
	for _, id := range []string{"table2", "classifier-strategy", "budget-frontier", "robustness-frontier"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatalf("missing golden (run with -update to generate): %v", err)
		}
		for _, width := range []int{2, 16} {
			res, err := e.Run(Options{Seed: 42, Trials: 2, EngineParallelism: width})
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalArtifact(res); got != string(want) {
				t.Errorf("%s at engine parallelism %d diverged from the sequential golden:\n--- got ---\n%s\n--- want ---\n%s",
					id, width, got, want)
			}
		}
	}
}

func TestGoldenLockstepMatchesSequentialEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full-harness golden comparison skipped in -short")
	}
	for _, e := range Experiments() {
		if _, skip := goldenExcluded[e.ID]; skip {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				// EngineParallelism 1 forces the audits inside each
				// trial onto the sequential engines too (table2 and
				// classifier-strategy default to batched width 4), so
				// the regenerated baseline is genuinely sequential.
				res, err := e.Run(Options{Seed: 42, Trials: 2, EngineParallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(canonicalArtifact(res)), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			res, err := e.Run(Options{Seed: 42, Trials: 2, Parallelism: 4, EngineParallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalArtifact(res); got != string(want) {
				t.Errorf("lockstep output at trial-parallelism 4 diverged from the sequential golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
