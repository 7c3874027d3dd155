package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"imagecvg"
)

// writeDataset saves a small gender dataset and returns its path.
func writeDataset(t *testing.T, n, minority int) string {
	t.Helper()
	ds, err := imagecvg.GenerateBinary(n, minority, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/d.json"
	if err := ds.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGroupMode(t *testing.T) {
	path := writeDataset(t, 500, 20)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "group", "-group", "1", "-tau", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "uncovered") {
		t.Errorf("20 < 50 should be uncovered:\n%s", out.String())
	}
}

func TestBaseMode(t *testing.T) {
	path := writeDataset(t, 200, 100)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "base", "-group", "1", "-tau", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "covered") {
		t.Errorf("100 >= 50 should be covered:\n%s", out.String())
	}
}

func TestAttributeModeWithCrowd(t *testing.T) {
	path := writeDataset(t, 400, 60)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "attribute", "-attr", "gender", "-crowd", "-tau", "30"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "gender=male") || !strings.Contains(out.String(), "crowd cost") {
		t.Errorf("output incomplete:\n%s", out.String())
	}
}

func TestIntersectionalMode(t *testing.T) {
	path := writeDataset(t, 300, 10)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "intersectional", "-tau", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "gender=female") {
		t.Errorf("females (10 < 50) should appear as MUP:\n%s", out.String())
	}
}

func TestRepairMode(t *testing.T) {
	path := writeDataset(t, 300, 10)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "repair", "-tau", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "acquisition plan") ||
		!strings.Contains(out.String(), "40 x gender=female") {
		t.Errorf("repair output incomplete:\n%s", out.String())
	}
}

func TestParallelCachedAttributeMode(t *testing.T) {
	path := writeDataset(t, 400, 60)
	var seqOut, parOut, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "attribute", "-tau", "30"}, &seqOut, &errOut)
	if code != 0 {
		t.Fatalf("sequential exit = %d, stderr: %s", code, errOut.String())
	}
	code = run([]string{"-data", path, "-mode", "attribute", "-tau", "30", "-parallelism", "8", "-cache"}, &parOut, &errOut)
	if code != 0 {
		t.Fatalf("parallel exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(parOut.String(), "cache: ") {
		t.Errorf("cache stats missing:\n%s", parOut.String())
	}
	// Same ground-truth oracle and seed: the verdict lines must agree
	// between the sequential and the concurrent engine.
	seqLines := strings.Split(seqOut.String(), "\n")
	parLines := strings.Split(parOut.String(), "\n")
	for i := range seqLines {
		if strings.Contains(seqLines[i], "covered") && seqLines[i] != parLines[i] {
			t.Errorf("line %d diverged:\n%s\nvs\n%s", i, seqLines[i], parLines[i])
		}
	}
}

func TestClassifierMode(t *testing.T) {
	path := writeDataset(t, 600, 200)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "classifier", "-group", "1",
		"-tau", "50", "-n", "25", "-precision", "0.95", "-parallelism", "4", "-lockstep"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "classifier:") || !strings.Contains(out.String(), "via partition") {
		t.Errorf("classifier output incomplete:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "covered") {
		t.Errorf("200 >= 50 should be covered:\n%s", out.String())
	}
}

// TestClassifierLockstepCrowdInvariantAcrossParallelism: the
// classifier audit through the simulated crowd with -lockstep must
// print byte-identical output (verdict, strategy, task breakdown,
// dollar cost) at every -parallelism value.
func TestClassifierLockstepCrowdInvariantAcrossParallelism(t *testing.T) {
	path := writeDataset(t, 300, 80)
	audit := func(parallelism string) string {
		var out, errOut bytes.Buffer
		code := run([]string{"-data", path, "-mode", "classifier", "-group", "1",
			"-tau", "30", "-n", "15", "-crowd", "-seed", "5", "-parallelism", parallelism, "-lockstep"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("parallelism %s: exit = %d, stderr: %s", parallelism, code, errOut.String())
		}
		return out.String()
	}
	base := audit("1")
	for _, p := range []string{"4", "16"} {
		if got := audit(p); got != base {
			t.Errorf("-lockstep classifier output diverged at -parallelism %s:\n%s\nvs\n%s", p, got, base)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	path := writeDataset(t, 50, 5)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"missing data", []string{"-mode", "group"}, 2},
		{"missing file", []string{"-data", "/no/such/file.json"}, 1},
		{"missing group", []string{"-data", path, "-mode", "group"}, 2},
		{"classifier missing group", []string{"-data", path, "-mode", "classifier"}, 2},
		{"classifier degenerate precision", []string{"-data", path, "-mode", "classifier", "-group", "1", "-precision", "0.5"}, 1},
		{"bad pattern", []string{"-data", path, "-mode", "group", "-group", "XX9"}, 1},
		{"unknown attr", []string{"-data", path, "-mode", "attribute", "-attr", "planet"}, 1},
		{"unknown mode", []string{"-data", path, "-mode", "dance"}, 2},
		{"bad flag", []string{"-zzz"}, 2},
		{"trust-probes zero", []string{"-data", path, "-mode", "group", "-group", "1",
			"-crowd", "-trust", "-trust-probes", "0"}, 2},
		{"trust-probes negative", []string{"-data", path, "-mode", "group", "-group", "1",
			"-crowd", "-trust", "-trust-probes", "-3"}, 2},
		{"serve without data-dir", []string{"-serve", ":0"}, 2},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != tc.code {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, code, tc.code, errOut.String())
		}
	}
}

// TestLockstepCrowdInvariantAcrossParallelism: through the CLI, a
// crowd-backed audit with -lockstep must print byte-identical output
// (verdicts, task counts, dollar cost) at every -parallelism value.
func TestLockstepCrowdInvariantAcrossParallelism(t *testing.T) {
	path := writeDataset(t, 300, 40)
	audit := func(parallelism string) string {
		var out, errOut bytes.Buffer
		code := run([]string{"-data", path, "-mode", "attribute", "-tau", "25",
			"-n", "15", "-crowd", "-seed", "3", "-parallelism", parallelism, "-lockstep"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("parallelism %s: exit = %d, stderr: %s", parallelism, code, errOut.String())
		}
		return out.String()
	}
	base := audit("1")
	for _, p := range []string{"4", "16"} {
		if got := audit(p); got != base {
			t.Errorf("-lockstep output diverged at -parallelism %s:\n%s\nvs\n%s", p, got, base)
		}
	}
}

// TestBudgetedGroupMode pins the -max-hits flag: a capped audit
// reports an undecided partial verdict plus the budget status line,
// and never commits more than the cap.
func TestBudgetedGroupMode(t *testing.T) {
	path := writeDataset(t, 800, 60)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "group", "-group", "1", "-tau", "50", "-max-hits", "5"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "undecided (budget exhausted)") {
		t.Errorf("capped audit should be undecided:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "budget: 5 HITs committed") {
		t.Errorf("missing budget status line:\n%s", out.String())
	}
}

// TestBudgetedCrowdAttributeMode exercises -max-spend against the
// simulated crowd: the cap is denominated in the deployment's dollars
// and the unsettled groups are marked in the verdict table.
func TestBudgetedCrowdAttributeMode(t *testing.T) {
	path := writeDataset(t, 300, 15)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "attribute", "-crowd", "-lockstep",
		"-tau", "40", "-max-spend", "2.00"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "UNSETTLED") || !strings.Contains(s, "budget exhausted") {
		t.Errorf("spend-capped crowd audit should leave unsettled groups:\n%s", s)
	}
	if !strings.Contains(s, "budget:") || !strings.Contains(s, "crowd cost:") {
		t.Errorf("missing budget/cost reporting:\n%s", s)
	}
}

// TestJournalCheckpointAndResume: a journaled audit checkpoints every
// committed round; re-running with -resume answers the whole audit
// from the journal — the verdict lines are identical and every round
// is replayed, none live.
func TestJournalCheckpointAndResume(t *testing.T) {
	path := writeDataset(t, 300, 40)
	jnl := t.TempDir() + "/audit.jnl"
	audit := func(extra ...string) string {
		args := append([]string{"-data", path, "-mode", "attribute", "-tau", "25",
			"-n", "15", "-crowd", "-seed", "3", "-journal", jnl}, extra...)
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return out.String()
	}

	fresh := audit()
	if !strings.Contains(fresh, "journal: checkpointing to") ||
		!strings.Contains(fresh, "(0 replayed") {
		t.Fatalf("fresh run journal lines missing:\n%s", fresh)
	}

	resumed := audit("-resume")
	if !strings.Contains(resumed, "journal: resuming") {
		t.Fatalf("resume line missing:\n%s", resumed)
	}
	if strings.Contains(resumed, "(0 replayed") || !strings.Contains(resumed, ", 0 live)") {
		t.Fatalf("resumed run should replay every round:\n%s", resumed)
	}
	// Verdict and cost lines must be byte-identical between the live
	// and the fully replayed run.
	verdicts := func(s string) []string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "covered") || strings.Contains(line, "total tasks") {
				keep = append(keep, line)
			}
		}
		return keep
	}
	f, r := verdicts(fresh), verdicts(resumed)
	if len(f) == 0 || len(f) != len(r) {
		t.Fatalf("verdict lines differ in number:\n%s\nvs\n%s", fresh, resumed)
	}
	for i := range f {
		if f[i] != r[i] {
			t.Errorf("verdict line diverged:\n%s\nvs\n%s", f[i], r[i])
		}
	}
}

// TestCrowdResumeMatchesUninterruptedRun: a crowd audit killed
// half-way through and resumed in a fresh process must end with the
// uninterrupted run's journal and output. The simulated crowd draws
// its workers from an RNG advanced per HIT, so the resume has to
// re-warm a fresh platform from the journal before live rounds start;
// random-spam adversaries make any divergence show in the verdicts.
func TestCrowdResumeMatchesUninterruptedRun(t *testing.T) {
	path := writeDataset(t, 600, 40)
	dir := t.TempDir()
	records := func(jnlPath string) []string {
		jnl, replay, err := imagecvg.OpenJournal(jnlPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		recs := make([]string, len(replay))
		for i, r := range replay {
			recs[i] = fmt.Sprintf("%+v", r)
		}
		return recs
	}
	withoutJournalLines := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "journal:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	for seed := 1; seed <= 4; seed++ {
		full, cut := fmt.Sprintf("%s/full%d.jnl", dir, seed), fmt.Sprintf("%s/cut%d.jnl", dir, seed)
		audit := func(jnlPath string, extra ...string) string {
			args := append([]string{"-data", path, "-mode", "intersectional", "-crowd",
				"-adversary-strategy", "random-spam", "-adversary-rate", "0.45",
				"-tau", "25", "-n", "15", "-seed", fmt.Sprint(seed), "-journal", jnlPath}, extra...)
			var out, errOut bytes.Buffer
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("seed %d: exit = %d, stderr: %s", seed, code, errOut.String())
			}
			return out.String()
		}
		want := audit(full)
		raw, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		// Keep the first half of the file: the torn tail recovers to
		// the last complete round, as after a crash mid-audit.
		if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		got := audit(cut, "-resume")
		if !strings.Contains(got, "journal: resuming") || strings.Contains(got, ", 0 live)") {
			t.Fatalf("seed %d: resume should replay a prefix and run the rest live:\n%s", seed, got)
		}
		if g, w := withoutJournalLines(got), withoutJournalLines(want); g != w {
			t.Errorf("seed %d: resumed output diverged:\n%s\nvs uninterrupted\n%s", seed, g, w)
		}
		g, w := records(cut), records(full)
		if len(g) != len(w) {
			t.Errorf("seed %d: resumed journal has %d rounds, uninterrupted %d", seed, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("seed %d: journal record %d diverged", seed, i)
				break
			}
		}
	}
}

// TestJournalClosedOnError: the journal file handle must be released
// on every exit path, audit errors included — a leaked handle means
// the final frame's durability was never confirmed. The run below
// opens the journal, then fails in the mode switch (bad pattern);
// the process-wide descriptor count must come back to its baseline.
func TestJournalClosedOnError(t *testing.T) {
	path := writeDataset(t, 50, 5)
	jnl := t.TempDir() + "/audit.jnl"
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	before := fds()
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "group", "-group", "XX9", "-journal", jnl}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if _, err := os.Stat(jnl); err != nil {
		t.Fatalf("journal was never created: %v", err)
	}
	if after := fds(); after != before {
		t.Errorf("descriptor count %d -> %d: journal handle leaked on the error path", before, after)
	}
	if strings.Contains(errOut.String(), "journal close") {
		t.Errorf("clean close reported an error:\n%s", errOut.String())
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	path := writeDataset(t, 50, 5)
	var out, errOut bytes.Buffer
	if code := run([]string{"-data", path, "-mode", "group", "-group", "1", "-resume"}, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2 (stderr: %s)", code, errOut.String())
	}
}

// syncWriter lets the serve goroutine and the test read/write the
// captured output concurrently.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestServeSmoke drives the whole -serve lifecycle through run():
// start the service on an ephemeral port, submit a job over HTTP,
// poll it to completion, then deliver SIGINT and check the graceful
// shutdown exits zero.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	var out, errOut syncWriter
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-serve", "127.0.0.1:0", "-data-dir", dir}, &out, &errOut)
	}()

	// The listen line carries the resolved address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("service never announced its address:\n%s%s", out.String(), errOut.String())
		}
		s := out.String()
		if i := strings.Index(s, "serving audit jobs on "); i >= 0 {
			rest := s[i+len("serving audit jobs on "):]
			if j := strings.Index(rest, " ("); j >= 0 {
				base = "http://" + rest[:j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"mode":"multiple","dataset":{"n":60,"minority":5,"seed":1},"tau":4,"set_size":8,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var st imagecvg.AuditJobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("POST /jobs = %d, status %+v", resp.StatusCode, st)
	}
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != imagecvg.JobDone || st.Result == nil {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}

	// Graceful shutdown on SIGINT: the NotifyContext inside serve()
	// owns the signal while the service runs.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exit = %d:\n%s", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("service never shut down after SIGINT:\n%s%s", out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown line:\n%s", out.String())
	}
}
