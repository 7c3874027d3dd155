package core

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// QueryKind names the three HIT types in transcripts.
type QueryKind string

// Transcript query kinds.
const (
	KindPoint   QueryKind = "point"
	KindSet     QueryKind = "set"
	KindReverse QueryKind = "reverse-set"
)

// QueryRecord is one oracle interaction of an audit transcript.
type QueryRecord struct {
	Seq    int
	Kind   QueryKind
	IDs    []dataset.ObjectID
	Group  string
	Answer bool  // set / reverse-set answer
	Labels []int // point answer
}

// RecordingOracle wraps an Oracle and records every interaction: the
// audit transcript a deployment keeps for billing disputes, replay
// debugging, and posterior quality analysis. It answers rounds, and
// appends each round's committed answers in request order under one
// lock, so a transcript of a concurrent audit is as deterministic as
// its round sequence; single queries are one-element rounds. A retry
// above it never re-posts an answered query, so a retried audit
// records the queries of a failure-free one, in the same order. Safe
// for concurrent use.
type RecordingOracle struct {
	// Inner is the recorded oracle. Set it before the first query.
	Inner Oracle

	lift   sync.Once
	rounds BatchOracle // Inner, lifted into rounds on first use

	mu      sync.Mutex
	records []QueryRecord
}

// NewRecordingOracle wraps an oracle.
func NewRecordingOracle(inner Oracle) *RecordingOracle {
	return &RecordingOracle{Inner: inner}
}

// inner returns Inner lifted into rounds, lifting it once.
func (r *RecordingOracle) inner() BatchOracle {
	r.lift.Do(func() { r.rounds = AsBatchOracle(r.Inner, 1) })
	return r.rounds
}

// SetQueryBatch implements BatchOracle: the committed answers (a
// failing round's answered prefix included) are recorded in request
// order.
func (r *RecordingOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	answers, err := r.inner().SetQueryBatch(reqs)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, ans := range answers {
		kind := KindSet
		if reqs[i].Reverse {
			kind = KindReverse
		}
		r.records = append(r.records, QueryRecord{Seq: len(r.records), Kind: kind,
			IDs: cloneIDs(reqs[i].IDs), Group: reqs[i].Group.String(), Answer: ans})
	}
	return answers, err
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (r *RecordingOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	labels, err := r.inner().PointQueryBatch(ids)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, l := range labels {
		r.records = append(r.records, QueryRecord{Seq: len(r.records), Kind: KindPoint,
			IDs: []dataset.ObjectID{ids[i]}, Labels: append([]int{}, l...)})
	}
	return labels, err
}

// SetQuery implements Oracle as a one-element round.
func (r *RecordingOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(r, ids, g, false)
}

// ReverseSetQuery implements Oracle as a one-element round.
func (r *RecordingOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(r, ids, g, true)
}

// PointQuery implements Oracle as a one-element round.
func (r *RecordingOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return pointOne(r, id)
}

// Records returns a copy of the transcript so far.
func (r *RecordingOracle) Records() []QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QueryRecord, len(r.records))
	copy(out, r.records)
	return out
}

// WriteCSV emits the transcript as seq,kind,group,size,answer rows.
func (r *RecordingOracle) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seq", "kind", "group", "size", "answer"}); err != nil {
		return err
	}
	for _, rec := range r.Records() {
		answer := strconv.FormatBool(rec.Answer)
		if rec.Kind == KindPoint {
			parts := make([]string, len(rec.Labels))
			for i, l := range rec.Labels {
				parts[i] = strconv.Itoa(l)
			}
			answer = strings.Join(parts, "|")
		}
		row := []string{
			strconv.Itoa(rec.Seq), string(rec.Kind), rec.Group,
			strconv.Itoa(len(rec.IDs)), answer,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func cloneIDs(ids []dataset.ObjectID) []dataset.ObjectID {
	out := make([]dataset.ObjectID, len(ids))
	copy(out, ids)
	return out
}

// ReplayOracle re-answers a recorded transcript positionally: the
// i-th query of the re-run gets the i-th recorded answer, after
// checking that the re-run asks the recorded query (kind, object IDs
// and group). It lets a recorded audit be re-executed
// deterministically — e.g. to debug algorithm changes against a paid
// crowd transcript without paying again. Rounds take their answers in
// request order under one lock, matching the RecordingOracle; single
// queries are one-element rounds.
type ReplayOracle struct {
	records []QueryRecord
	next    int
	mu      sync.Mutex
}

// NewReplayOracle builds a replay oracle over a transcript.
func NewReplayOracle(records []QueryRecord) *ReplayOracle {
	cp := make([]QueryRecord, len(records))
	copy(cp, records)
	return &ReplayOracle{records: cp}
}

// ErrTranscriptExhausted is returned when the re-run issues more
// queries than the transcript holds.
var ErrTranscriptExhausted = errors.New("core: transcript exhausted")

// ErrTranscriptMismatch is returned when the re-run's query diverges
// from the recording.
var ErrTranscriptMismatch = errors.New("core: transcript mismatch")

// take consumes the next record after checking that it asked the same
// query: kind, object IDs in order, and group. Callers hold r.mu.
func (r *ReplayOracle) take(kind QueryKind, ids []dataset.ObjectID, group string) (QueryRecord, error) {
	if r.next >= len(r.records) {
		return QueryRecord{}, ErrTranscriptExhausted
	}
	rec := r.records[r.next]
	if rec.Kind != kind || rec.Group != group || !slices.Equal(rec.IDs, ids) {
		return QueryRecord{}, fmt.Errorf("%w: query %d is %s/%d %q, recorded %s/%d %q",
			ErrTranscriptMismatch, r.next, kind, len(ids), group, rec.Kind, len(rec.IDs), rec.Group)
	}
	r.next++
	return rec, nil
}

// SetQueryBatch implements BatchOracle; a divergence fails the round
// after its answered prefix.
func (r *ReplayOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	answers := make([]bool, len(reqs))
	for i, req := range reqs {
		kind := KindSet
		if req.Reverse {
			kind = KindReverse
		}
		rec, err := r.take(kind, req.IDs, req.Group.String())
		if err != nil {
			return answers[:i], err
		}
		answers[i] = rec.Answer
	}
	return answers, nil
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (r *ReplayOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	labels := make([][]int, len(ids))
	for i := range ids {
		rec, err := r.take(KindPoint, ids[i:i+1], "")
		if err != nil {
			return labels[:i], err
		}
		labels[i] = rec.Labels
	}
	return labels, nil
}

// SetQuery implements Oracle as a one-element round.
func (r *ReplayOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(r, ids, g, false)
}

// ReverseSetQuery implements Oracle as a one-element round.
func (r *ReplayOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(r, ids, g, true)
}

// PointQuery implements Oracle as a one-element round.
func (r *ReplayOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return pointOne(r, id)
}

// Remaining returns how many recorded answers are left.
func (r *ReplayOracle) Remaining() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.records) - r.next
}
