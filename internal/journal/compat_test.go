package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// The files under testdata/ pin the first codec version, CVGJNL01
// (length+CRC frames of JSON records). Both were written by that
// codec's writer before the binary codec replaced it, and neither may
// be regenerated: they are what a journal left behind by an older
// build looks like.
//
//   - v1-sample.jnl holds sampleRecords().
//   - v1-audit.jnl is the journal of compatAudit with no replay.
const (
	v1SampleFixture = "testdata/v1-sample.jnl"
	v1AuditFixture  = "testdata/v1-audit.jnl"
)

// compatAudit runs a width-2 lockstep Multiple-Coverage audit over a
// simulated crowd through a journaled, governed stack, re-warming the
// fresh platform from replay first as the service does on resume. It
// returns everything the audit observably produced.
func compatAudit(t *testing.T, jnl core.RoundJournal, replay []core.RoundRecord) (string, *core.JournalingOracle) {
	t.Helper()
	s := pattern.MustSchema(
		pattern.Attribute{Name: "gender", Values: []string{"m", "f"}},
		pattern.Attribute{Name: "age", Values: []string{"young", "old"}},
	)
	labels := make([][]int, 240)
	for i := range labels {
		var g, a int
		if i%11 == 0 {
			g = 1
		}
		if i%3 == 0 {
			a = 1
		}
		labels[i] = []int{g, a}
	}
	d := dataset.MustNew(s, labels)
	p, err := crowd.NewPlatform(d, crowd.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(replay); err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStack(p, core.StackConfig{
		Journal: jnl,
		Replay:  replay,
		Budget:  &core.Budget{MaxSpend: 1000, Cost: p.HITCost()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MultipleCoverage(st.Top, d.IDs(), 12, 18, pattern.GroupsForAttribute(s, 0), core.MultipleOptions{
		Rng: rand.New(rand.NewSource(3)), Parallelism: 2, Lockstep: st.Lockstep(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v|%+v|%d|%d|%d|%+v|%.6f", res.Results, res.SuperAudits,
		res.SampleTasks, res.AuditTasks, res.Tasks, st.Governor.Spent(), p.Ledger().TotalCost()), st.Journal
}

// copyFixture copies a testdata journal into a fresh temp file, so a
// test may open it for appends.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("CVGJNL01")) {
		t.Fatalf("%s is not a CVGJNL01 journal", fixture)
	}
	path := filepath.Join(t.TempDir(), filepath.Base(fixture))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadV1Fixture: a CVGJNL01 journal still loads, record for record.
func TestLoadV1Fixture(t *testing.T) {
	recs, err := Load(v1SampleFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(recs, sampleRecords()) {
		t.Fatalf("v1 fixture loaded as\n%+v\nwant\n%+v", recs, sampleRecords())
	}
}

// TestResumeFromV1Journal: an audit resumed from a CVGJNL01 journal —
// whole, or cut in half as by a crash — ends exactly like the
// uninterrupted run: the same results and spend, the same journal
// records, and the same bytes as the journal of an uninterrupted run
// written by the current codec.
func TestResumeFromV1Journal(t *testing.T) {
	fresh := filepath.Join(t.TempDir(), "fresh.jnl")
	j, err := Create(fresh)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := compatAudit(t, j, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Load(v1AuditFixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Fatalf("v1 audit fixture holds only %d rounds", len(full))
	}
	for _, tc := range []struct {
		name string
		cut  func([]byte) []byte
	}{
		{"whole", func(b []byte) []byte { return b }},
		{"half", func(b []byte) []byte { return b[:len(b)/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := copyFixture(t, v1AuditFixture)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.cut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			j, replay, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "half" && (len(replay) == 0 || len(replay) == len(full)) {
				t.Fatalf("the cut journal replays %d of %d rounds", len(replay), len(full))
			}
			got, jo := compatAudit(t, j, replay)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("resumed audit diverged:\n%s\nwant\n%s", got, want)
			}
			if jo.Replayed() != len(replay) || jo.Rounds() != len(full) {
				t.Fatalf("replayed %d of %d rounds, committed %d; the fixture holds %d",
					jo.Replayed(), len(replay), jo.Rounds(), len(full))
			}
			final, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !recordsEqual(final, full) {
				t.Fatal("resumed journal records diverged from the uninterrupted run's")
			}
			if gotBytes, err := os.ReadFile(path); err != nil || !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("resumed journal is not byte-identical to an uninterrupted run's (read error %v)", err)
			}
		})
	}
}
