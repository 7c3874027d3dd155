package server_test

// Serve-mode conformance: a job submitted to the engine must finish
// with verdicts, task tallies and ledger spend byte-identical (as the
// serialized JobResult) to the same configuration run one-shot
// through the root Auditor — fresh, and after a mid-job kill and
// engine restart (crash injection at a round boundary, the process
// model internal/crowd's kill/resume matrix established) — at
// P ∈ {1, 4}, for the stateless truth oracle and the stateful
// simulated crowd, across all three audit modes.

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	imagecvg "imagecvg"
	"imagecvg/internal/server"
)

// conformanceCell is one audited configuration.
type conformanceCell struct {
	name   string
	mode   string
	oracle string
	// dataset
	n, minority int
	dsSeed      int64
	// audit
	tau, setSize int
	seed         int64
	maxHITs      int
	tp, fp       int
}

func cells() []conformanceCell {
	return []conformanceCell{
		{name: "truth-multiple", mode: server.ModeMultiple, oracle: "truth",
			n: 160, minority: 12, dsSeed: 3, tau: 10, setSize: 16, seed: 7},
		{name: "crowd-multiple-budgeted", mode: server.ModeMultiple, oracle: "crowd",
			n: 160, minority: 12, dsSeed: 3, tau: 10, setSize: 16, seed: 7, maxHITs: 120},
		{name: "crowd-intersectional", mode: server.ModeIntersectional, oracle: "crowd",
			n: 140, minority: 10, dsSeed: 5, tau: 8, setSize: 14, seed: 11},
		{name: "crowd-classifier", mode: server.ModeClassifier, oracle: "crowd",
			n: 160, minority: 14, dsSeed: 9, tau: 9, setSize: 16, seed: 13, tp: 10, fp: 5},
		{name: "truth-classifier-budgeted", mode: server.ModeClassifier, oracle: "truth",
			n: 300, minority: 40, dsSeed: 9, tau: 30, setSize: 16, seed: 13, tp: 30, fp: 25, maxHITs: 20},
	}
}

// oneShot runs the cell through the root Auditor and serializes the
// outcome with the same converters the engine uses — so a byte
// comparison pins verdicts, task tallies and ledger spend at once.
func oneShot(t *testing.T, c conformanceCell, parallelism int) []byte {
	t.Helper()
	ds, err := imagecvg.GenerateBinary(c.n, c.minority, c.dsSeed)
	if err != nil {
		t.Fatal(err)
	}
	schema := ds.Schema()
	var (
		oracle imagecvg.Oracle
		crowd  *imagecvg.SimulatedCrowd
	)
	if c.oracle == "crowd" {
		crowd, err = imagecvg.NewSimulatedCrowd(ds, c.seed, imagecvg.CrowdOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oracle = crowd
	} else {
		oracle = imagecvg.NewTruthOracle(ds)
	}
	a := imagecvg.NewAuditor(oracle, c.tau, c.setSize).
		WithSeed(c.seed).WithParallelism(parallelism).WithLockstep()
	if c.maxHITs > 0 {
		// The engine always prices the governor with the platform's
		// cost model, so the reference budget must too for the Spend
		// column to match.
		b := imagecvg.Budget{MaxHITs: c.maxHITs}
		if crowd != nil {
			b.Cost = crowd.HITCost()
		}
		a.WithBudget(b)
	}
	var res *server.JobResult
	switch c.mode {
	case server.ModeIntersectional:
		ir, err := a.AuditIntersectional(ds.IDs(), schema)
		if err != nil {
			t.Fatal(err)
		}
		spent, _ := a.BudgetSpent()
		res = server.ResultFromIntersectional(ir, schema, spent)
	case server.ModeClassifier:
		g := imagecvg.GroupsForAttribute(schema, 0)[1]
		predicted := ds.PredictedSet(g, c.tp, c.fp)
		cr, err := a.AuditWithClassifier(ds.IDs(), predicted, g)
		if err != nil {
			t.Fatal(err)
		}
		spent, _ := a.BudgetSpent()
		out := server.ResultFromClassifier(cr, spent)
		res = out
	default:
		mr, err := a.AuditAttribute(ds.IDs(), schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		spent, _ := a.BudgetSpent()
		res = server.ResultFromMultiple(mr, spent)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// jobConfig translates a cell into a serve-mode submission.
func jobConfig(c conformanceCell, parallelism int) server.JobConfig {
	return server.JobConfig{
		Mode:         c.mode,
		Dataset:      server.DatasetSpec{N: c.n, Minority: c.minority, Seed: c.dsSeed},
		Tau:          c.tau,
		SetSize:      c.setSize,
		Seed:         c.seed,
		Parallelism:  parallelism,
		Oracle:       c.oracle,
		MaxHITs:      c.maxHITs,
		ClassifierTP: c.tp,
		ClassifierFP: c.fp,
	}
}

// serveResult submits the cell to an engine and returns the finished
// job's serialized result.
func serveResult(t *testing.T, e *server.Engine, cfg server.JobConfig) []byte {
	t.Helper()
	id, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
	}
	data, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServeConformance: fresh serve-mode jobs vs the one-shot Auditor.
func TestServeConformance(t *testing.T) {
	for _, c := range cells() {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", c.name, p), func(t *testing.T) {
				want := oneShot(t, c, p)
				e, err := server.NewEngine(server.Options{DataDir: t.TempDir(), Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				got := serveResult(t, e, jobConfig(c, p))
				if string(got) != string(want) {
					t.Errorf("serve result diverged from one-shot Auditor:\n%s\nvs\n%s", got, want)
				}
			})
		}
	}
}

// TestServeKillRestartConformance: the same byte-identity after the
// job is killed mid-run (crash injection after 2 committed rounds —
// the engine parks it non-terminal, exactly like a process kill at a
// round boundary) and a fresh engine over the same data directory
// resumes it. The crowd cells are the sharp edge: resumption must
// reconstruct the stateful platform by re-warming it from the
// journal's answered prefixes.
func TestServeKillRestartConformance(t *testing.T) {
	for _, c := range cells() {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", c.name, p), func(t *testing.T) {
				want := oneShot(t, c, p)
				dir := t.TempDir()
				e1, err := server.NewEngine(server.Options{DataDir: dir, Workers: 1, CrashAfterRounds: 2})
				if err != nil {
					t.Fatal(err)
				}
				id, err := e1.Submit(jobConfig(c, p))
				if err != nil {
					t.Fatal(err)
				}
				// Wait for the injected kill to park the job.
				deadline := time.Now().Add(60 * time.Second)
				for {
					st, err := e1.Status(id)
					if err != nil {
						t.Fatal(err)
					}
					if st.State == server.StateQueued && st.Rounds >= 2 {
						break
					}
					if st.State.Terminal() {
						t.Fatalf("job reached %s before the injected kill", st.State)
					}
					if time.Now().After(deadline) {
						t.Fatalf("job never parked (state %s, %d rounds)", st.State, st.Rounds)
					}
					time.Sleep(2 * time.Millisecond)
				}
				if err := e1.Close(); err != nil {
					t.Fatal(err)
				}

				e2, err := server.NewEngine(server.Options{DataDir: dir, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer e2.Close()
				st, err := e2.Wait(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.State != server.StateDone {
					t.Fatalf("resumed job: %s (%s)", st.State, st.Error)
				}
				if st.Replayed < 2 {
					t.Fatalf("resumed job replayed %d rounds, want >= 2", st.Replayed)
				}
				got, err := json.Marshal(st.Result)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("killed+resumed result diverged from one-shot Auditor:\n%s\nvs\n%s", got, want)
				}
			})
		}
	}
}
