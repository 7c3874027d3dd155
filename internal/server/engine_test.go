package server

// Job-engine lifecycle suite, run under -race in CI: concurrent
// submit/status/cancel of a 32-job fleet, cancel-during-round
// commits-or-never semantics against the on-disk journal, restart
// resumption of interrupted jobs, and per-tenant budget admission.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"imagecvg/internal/journal"
)

// smallJob is a fast truth-oracle audit used across the suite.
func smallJob(seed int64) JobConfig {
	return JobConfig{
		Mode:    ModeMultiple,
		Dataset: DatasetSpec{N: 60, Minority: 5, Seed: seed},
		Tau:     4,
		SetSize: 8,
		Seed:    seed,
	}
}

// slowJob takes long enough to cancel mid-run: per-HIT delay makes
// each lockstep round take visible wall-clock time.
func slowJob(seed int64) JobConfig {
	cfg := smallJob(seed)
	cfg.Dataset.N = 200
	cfg.Dataset.Minority = 16
	cfg.Tau = 10
	cfg.SetSize = 12
	cfg.HITDelayMicros = 1500
	return cfg
}

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// waitTerminal waits for a terminal state, failing the test on timeout.
func waitTerminal(t *testing.T, e *Engine, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineLifecycleConcurrent drives 32 jobs through the engine
// while other goroutines hammer Status/List and cancel a third of the
// fleet — the -race lifecycle stress the ISSUE asks for.
func TestEngineLifecycleConcurrent(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 8})
	const n = 32
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := slowJob(int64(i + 1))
		cfg.HITDelayMicros = 200
		id, err := e.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Status/List hammers.
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.List()
				if _, err := e.Status(ids[g*7%n]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Cancel every third job concurrently.
	for i := 0; i < n; i += 3 {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := e.Cancel(id); err != nil {
				t.Error(err)
			}
		}(ids[i])
	}
	for i, id := range ids {
		st := waitTerminal(t, e, id)
		switch {
		case i%3 == 0:
			// A cancel can race completion; both outcomes are terminal
			// and legal, failure is not.
			if st.State != StateCancelled && st.State != StateDone {
				t.Errorf("job %s: state %s (%s), want cancelled or done", id, st.State, st.Error)
			}
		case st.State != StateDone:
			t.Errorf("job %s: state %s (%s), want done", id, st.State, st.Error)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCancelCommitsOrNever cancels a running job and checks the
// commits-or-never contract: the on-disk journal holds exactly the
// rounds the job reports, every one complete and gapless — no torn
// round, no phantom round past the cancellation point.
func TestCancelCommitsOrNever(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Options{DataDir: dir, Workers: 2})
	id, err := e.Submit(slowJob(3))
	if err != nil {
		t.Fatal(err)
	}
	sub, unsub, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	// Wait for at least one committed round, then cancel mid-flight.
	for ev := range sub {
		if ev.Type == "round" {
			break
		}
		if ev.Type == "state" && ev.State.Terminal() {
			t.Fatalf("job finished before a round event arrived")
		}
	}
	if err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if st.Rounds == 0 {
		t.Fatal("cancelled job reports zero committed rounds")
	}
	recs, err := journal.Load(filepath.Join(dir, id+".jnl"))
	if err != nil {
		t.Fatalf("journal after cancel: %v", err)
	}
	if len(recs) != st.Rounds {
		t.Fatalf("journal holds %d rounds, status says %d", len(recs), st.Rounds)
	}
}

// TestRestartResume interrupts a job with crash injection, restarts
// the engine over the same data directory, and checks the resumed
// job's result is byte-identical to an uninterrupted run of the same
// configuration.
func TestRestartResume(t *testing.T) {
	cfg := smallJob(11)
	cfg.Dataset.N = 150
	cfg.Dataset.Minority = 12
	cfg.Tau = 8

	// Uninterrupted reference.
	ref := newTestEngine(t, Options{Workers: 1})
	refID, err := ref.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, ref, refID)
	if refSt.State != StateDone {
		t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
	}

	// Crash-injected first attempt: parked non-terminal after 2 rounds.
	dir := t.TempDir()
	e1 := newTestEngine(t, Options{DataDir: dir, Workers: 1, CrashAfterRounds: 2})
	id, err := e1.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, unsub, err := e1.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	parked := false
	for ev := range sub {
		if ev.Type == "state" && ev.State == StateQueued {
			parked = true
			break
		}
		if ev.Type == "state" && ev.State.Terminal() {
			t.Fatalf("job reached %s before the injected crash", ev.State)
		}
	}
	unsub()
	if !parked {
		t.Fatal("job never parked after crash injection")
	}
	st, err := e1.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 2 {
		t.Fatalf("parked with %d rounds, want >= 2", st.Rounds)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarted engine resumes and finishes.
	e2 := newTestEngine(t, Options{DataDir: dir, Workers: 1})
	st2, err := e2.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", st2.State, st2.Error)
	}
	if st2.Replayed == 0 {
		t.Fatal("resumed job replayed zero rounds")
	}
	got, _ := json.Marshal(st2.Result)
	want, _ := json.Marshal(refSt.Result)
	if string(got) != string(want) {
		t.Fatalf("resumed result diverged:\n%s\nvs\n%s", got, want)
	}
	if st2.Rounds != refSt.Rounds {
		t.Fatalf("resumed rounds %d, reference %d", st2.Rounds, refSt.Rounds)
	}
}

// TestTenantBudget checks admission: job budgets clamp to the
// tenant's remaining headroom and an exhausted tenant is refused.
func TestTenantBudget(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, TenantMaxHITs: 40})
	cfg := smallJob(5)
	cfg.Tenant = "acme"
	id, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Budget.MaxHITs != 40 {
		t.Fatalf("effective MaxHITs %d, want clamp to tenant's 40", st.Budget.MaxHITs)
	}
	st = waitTerminal(t, e, id)
	if st.State != StateDone {
		t.Fatalf("budgeted job: %s (%s)", st.State, st.Error)
	}
	if st.Spent.HITs() == 0 || st.Spent.HITs() > 40 {
		t.Fatalf("spent %d HITs under a 40-HIT cap", st.Spent.HITs())
	}
	// Burn the remainder until the tenant is refused.
	refused := false
	for i := 0; i < 10; i++ {
		next := smallJob(int64(6 + i))
		next.Tenant = "acme"
		nid, err := e.Submit(next)
		if errors.Is(err, ErrTenantBudget) {
			refused = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, e, nid)
	}
	if !refused {
		t.Fatal("tenant never exhausted its 40-HIT cap")
	}
	// Other tenants are unaffected.
	other := smallJob(99)
	other.Tenant = "globex"
	if _, err := e.Submit(other); err != nil {
		t.Fatalf("fresh tenant refused: %v", err)
	}
}

// TestTenantBudgetConcurrentSubmit submits back-to-back without
// waiting for terminal states — the normal async pattern — and checks
// admission reserves each job's clamped caps, so concurrent jobs
// split the tenant's headroom instead of each being clamped to all of
// it (which would let a tenant commit N× its cap). A slow job from
// another tenant occupies the single worker, so none of the budgeted
// jobs can run (and release its reservation) between submissions.
func TestTenantBudgetConcurrentSubmit(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, TenantMaxHITs: 40})
	blocker := slowJob(41)
	blocker.Tenant = "blocker"
	blockerID, err := e.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, want := range []int{15, 15, 10} { // 15+15 leave 10 of 40
		cfg := smallJob(int64(42 + i))
		cfg.Tenant = "acme"
		cfg.MaxHITs = 15
		id, err := e.Submit(cfg)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		st, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Budget.MaxHITs != want {
			t.Fatalf("job %d admitted with MaxHITs %d, want %d", i, st.Budget.MaxHITs, want)
		}
		ids = append(ids, id)
	}
	over := smallJob(45)
	over.Tenant = "acme"
	over.MaxHITs = 15
	if _, err := e.Submit(over); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("4th concurrent job admitted over the tenant cap (err=%v)", err)
	}
	// Terminal jobs release their reservations and fold actual spend:
	// cancelling the queued jobs (spend 0) restores the full headroom.
	for _, id := range ids {
		if err := e.Cancel(id); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, e, id)
	}
	again := smallJob(46)
	again.Tenant = "acme"
	id, err := e.Submit(again)
	if err != nil {
		t.Fatalf("submit after reservations released: %v", err)
	}
	if st, _ := e.Status(id); st.Budget.MaxHITs != 40 {
		t.Fatalf("post-release headroom %d, want 40", st.Budget.MaxHITs)
	}
	if err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	_ = e.Cancel(blockerID)
}

// TestTenantBudgetReservedAcrossRestart parks a budgeted job mid-run
// via crash injection, restarts the engine over the same directory,
// and checks recovery re-reserves the parked job's persisted caps —
// a submission on the restarted engine sees only the leftover
// headroom.
func TestTenantBudgetReservedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := newTestEngine(t, Options{DataDir: dir, Workers: 1, TenantMaxHITs: 400, CrashAfterRounds: 1})
	cfg := slowJob(51)
	cfg.Tenant = "acme"
	cfg.MaxHITs = 150 // ample: one committed round cannot exhaust it
	id, err := e1.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, unsub, err := e1.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	parked := false
	for ev := range sub {
		if ev.Type == "state" && ev.State == StateQueued {
			parked = true
			break
		}
		if ev.Type == "state" && ev.State.Terminal() {
			t.Fatalf("job reached %s before the injected crash", ev.State)
		}
	}
	unsub()
	if !parked {
		t.Fatal("job never parked after crash injection")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, Options{DataDir: dir, Workers: 1, TenantMaxHITs: 400})
	next := smallJob(52)
	next.Tenant = "acme"
	nid, err := e2.Submit(next)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e2.Status(nid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Budget.MaxHITs != 250 {
		t.Fatalf("post-restart headroom %d, want 250 (400 minus the parked job's reserved 150)", st.Budget.MaxHITs)
	}
}

// TestRecoverRejectsUnknownMetaField checks the loud-corruption
// policy extends to job meta files: an unknown field fails recovery
// instead of being silently dropped.
func TestRecoverRejectsUnknownMetaField(t *testing.T) {
	dir := t.TempDir()
	meta := `{"id":"job-000000","config":{"dataset":{"n":10},"seed":1},"budget":{},"state":"done","bogus_field":true}`
	if err := os.WriteFile(filepath.Join(dir, "job-000000.job.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Options{DataDir: dir}); err == nil {
		t.Fatal("engine recovered a job meta with an unknown field")
	}
}

// TestSubmitValidation table-tests config rejection.
func TestSubmitValidation(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	cases := []struct {
		name string
		cfg  JobConfig
	}{
		{"unknown mode", JobConfig{Mode: "bogus", Dataset: DatasetSpec{N: 10}}},
		{"no dataset", JobConfig{Mode: ModeMultiple}},
		{"negative minority", JobConfig{Dataset: DatasetSpec{N: 10, Minority: -1}}},
		{"minority over n", JobConfig{Dataset: DatasetSpec{N: 10, Minority: 11}}},
		{"negative tau", JobConfig{Dataset: DatasetSpec{N: 10}, Tau: -1}},
		{"negative set size", JobConfig{Dataset: DatasetSpec{N: 10}, SetSize: -2}},
		{"negative parallelism", JobConfig{Dataset: DatasetSpec{N: 10}, Parallelism: -1}},
		{"unknown oracle", JobConfig{Dataset: DatasetSpec{N: 10}, Oracle: "psychic"}},
		{"negative budget", JobConfig{Dataset: DatasetSpec{N: 10}, MaxHITs: -5}},
		{"negative delay", JobConfig{Dataset: DatasetSpec{N: 10}, HITDelayMicros: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.Submit(tc.cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", tc.cfg)
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("validation error %v does not wrap ErrInvalidConfig", err)
			}
		})
	}
}

// TestStreamKeepsTerminalEventForSlowSubscriber: a subscriber that
// reads nothing while a job commits more rounds than its buffer holds
// still receives the terminal state event last — progress events are
// advisory, the terminal one is not.
func TestStreamKeepsTerminalEventForSlowSubscriber(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	cfg := smallJob(7)
	cfg.Dataset.N = 2000
	cfg.Dataset.Minority = 30
	cfg.Tau = 25
	cfg.SetSize = 6
	cfg.HITDelayMicros = 100 // outlast the Subscribe below
	id, err := e.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, unsub, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	st, err := e.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Rounds <= 64 {
		t.Fatalf("state %s after %d rounds, want done after more than 64", st.State, st.Rounds)
	}
	var last Event
	for ev := range sub {
		last = ev
	}
	if last.Type != "state" || last.State != st.State {
		t.Errorf("last event %+v, want the terminal state event %q", last, st.State)
	}
}
