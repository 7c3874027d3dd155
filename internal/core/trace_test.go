package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"imagecvg/internal/dataset"
)

func TestRecordingOracleTranscript(t *testing.T) {
	d := binaryDataset(t, []int{0, 1, 0})
	rec := NewRecordingOracle(NewTruthOracle(d))
	g := female(d)

	if _, err := rec.SetQuery(d.IDs(), g); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.ReverseSetQuery(d.IDs()[:2], g); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.PointQuery(1); err != nil {
		t.Fatal(err)
	}
	records := rec.Records()
	if len(records) != 3 {
		t.Fatalf("records = %d, want 3", len(records))
	}
	if records[0].Kind != KindSet || !records[0].Answer || len(records[0].IDs) != 3 {
		t.Errorf("record 0 = %+v", records[0])
	}
	if records[1].Kind != KindReverse {
		t.Errorf("record 1 = %+v", records[1])
	}
	if records[2].Kind != KindPoint || records[2].Labels[0] != 1 {
		t.Errorf("record 2 = %+v", records[2])
	}
	if records[0].Seq != 0 || records[2].Seq != 2 {
		t.Error("sequence numbers wrong")
	}

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "seq,kind,group,size,answer") ||
		!strings.Contains(out, "set,female,3,true") ||
		!strings.Contains(out, "point,,1,1") {
		t.Errorf("csv:\n%s", out)
	}
}

func TestRecordingOracleSkipsFailedQueries(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	rec := NewRecordingOracle(&FlakyOracle{Inner: NewTruthOracle(d), FailEvery: 1})
	if _, err := rec.SetQuery(d.IDs(), female(d)); err == nil {
		t.Fatal("want error")
	}
	if len(rec.Records()) != 0 {
		t.Error("failed queries must not enter the transcript")
	}
}

func TestReplayReproducesAudit(t *testing.T) {
	// Record a full audit, then replay it without the dataset: the
	// replayed audit must land on the identical result at zero truth
	// accesses.
	d := binaryDataset(t, []int{0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1})
	g := female(d)
	rec := NewRecordingOracle(NewTruthOracle(d))
	orig, err := GroupCoverage(rec, d.IDs(), 8, 3, g)
	if err != nil {
		t.Fatal(err)
	}

	replay := NewReplayOracle(rec.Records())
	again, err := GroupCoverage(replay, d.IDs(), 8, 3, g)
	if err != nil {
		t.Fatal(err)
	}
	if again.Covered != orig.Covered || again.Count != orig.Count || again.Tasks != orig.Tasks {
		t.Errorf("replay diverged: %+v vs %+v", again, orig)
	}
	if replay.Remaining() != 0 {
		t.Errorf("replay left %d unused records", replay.Remaining())
	}
}

func TestReplayMismatchAndExhaustion(t *testing.T) {
	d := binaryDataset(t, []int{0, 1})
	g := female(d)
	rec := NewRecordingOracle(NewTruthOracle(d))
	if _, err := rec.SetQuery(d.IDs(), g); err != nil {
		t.Fatal(err)
	}
	replay := NewReplayOracle(rec.Records())
	// Wrong kind.
	if _, err := replay.PointQuery(0); !errors.Is(err, ErrTranscriptMismatch) {
		t.Errorf("err = %v, want mismatch", err)
	}
	// Wrong size.
	if _, err := replay.SetQuery(d.IDs()[:1], g); !errors.Is(err, ErrTranscriptMismatch) {
		t.Errorf("err = %v, want mismatch", err)
	}
	// Consume the one record, then exhaust.
	if _, err := replay.SetQuery(d.IDs(), g); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.SetQuery(d.IDs(), g); !errors.Is(err, ErrTranscriptExhausted) {
		t.Errorf("err = %v, want exhausted", err)
	}

	// Two queries of the same kind and size, replayed swapped: the
	// shape matches, the objects do not.
	d4 := binaryDataset(t, []int{0, 1, 1, 0})
	ids := d4.IDs()
	rec = NewRecordingOracle(NewTruthOracle(d4))
	for _, set := range [][]dataset.ObjectID{ids[:2], ids[2:]} {
		if _, err := rec.SetQuery(set, female(d4)); err != nil {
			t.Fatal(err)
		}
	}
	replay = NewReplayOracle(rec.Records())
	if _, err := replay.SetQuery(ids[2:], female(d4)); !errors.Is(err, ErrTranscriptMismatch) {
		t.Errorf("swapped queries: err = %v, want mismatch", err)
	}
	// Same objects, another group.
	if _, err := replay.SetQuery(ids[:2], dataset.Male(d4.Schema())); !errors.Is(err, ErrTranscriptMismatch) {
		t.Errorf("other group: err = %v, want mismatch", err)
	}
	if _, err := replay.SetQuery(ids[:2], female(d4)); err != nil {
		t.Errorf("recorded query: %v", err)
	}
}

func TestExecutionTracePaperExample(t *testing.T) {
	// The 16-image running example: 7 issued tasks plus the inferred
	// sibling answers, rendered as text and DOT.
	bits := []int{0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1}
	d := binaryDataset(t, bits)
	trace := &ExecutionTrace{}
	res, err := GroupCoverageOpt(NewTruthOracle(d), d.IDs(), 16, 3, female(d),
		GroupCoverageOptions{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Tasks() != res.Tasks || trace.Tasks() != 7 {
		t.Errorf("trace tasks = %d, result tasks = %d, want 7", trace.Tasks(), res.Tasks)
	}
	inferred := 0
	for _, nd := range trace.Nodes {
		if nd.Inferred {
			inferred++
			if !nd.Answer {
				t.Error("inferred answers are always yes")
			}
		}
	}
	// The walkthrough infers both right siblings at level 3.
	if inferred != 2 {
		t.Errorf("inferred = %d, want 2", inferred)
	}
	dot := trace.DOT()
	if !strings.Contains(dot, "digraph groupcoverage") ||
		!strings.Contains(dot, "dashed") ||
		!strings.Contains(dot, "[0,16)") {
		t.Errorf("DOT output incomplete:\n%s", dot)
	}
	txt := trace.String()
	if !strings.Contains(txt, "(inferred, free)") {
		t.Errorf("text trace missing inference marks:\n%s", txt)
	}
}
