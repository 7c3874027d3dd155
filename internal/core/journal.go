package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the checkpoint/resume layer of the audit service: a
// RoundJournal persists every committed oracle round, and the
// JournalingOracle middleware records live rounds and replays journaled
// ones, so a crashed or killed audit resumes without re-posting — or
// re-paying — a single committed HIT. See the package comment
// ("Checkpoint, resume, and cancellation") for the contract; the file
// codec lives in internal/journal.

// Round-outcome kinds persisted in RoundRecord.ErrKind. Only outcomes
// that are deterministic facts about the committed round are
// journaled: a fully answered round, a budget exhaustion (the governor
// refused a deterministic suffix), or a transient failure (the round's
// committed prefix is real even though the rest must be re-posted).
// Hard errors and cancellations are never journaled — those rounds did
// not commit, and a resumed run should attempt them live.
const (
	roundErrNone      = ""
	roundErrBudget    = "budget"
	roundErrTransient = "transient"
)

// RoundRecord is one committed oracle round: the checkpoint unit of an
// audit. Under Lockstep every batch call the audit makes — the
// sampling round, each canonical lockstep round's set and point
// batches, and the single-query rounds of sequential phases — is one
// record, so the record sequence is a pure function of committed
// answers and replays exactly. All fields are JSON-serializable for
// the file codec in internal/journal.
type RoundRecord struct {
	// Round is the record's index in the journal, counted from 0.
	Round int `json:"round"`
	// Sets and SetAnswers carry a set/reverse-set round (answers are
	// positional and may be a committed prefix when ErrKind is set).
	Sets       []SetRequest `json:"sets,omitempty"`
	SetAnswers []bool       `json:"set_answers,omitempty"`
	// Points and PointAnswers carry a point-query round.
	Points       []dataset.ObjectID `json:"points,omitempty"`
	PointAnswers [][]int            `json:"point_answers,omitempty"`
	// ErrKind records how the round ended: "" (fully committed),
	// "budget" (ErrBudgetExhausted past the answered prefix) or
	// "transient" (ErrTransient past the answered prefix).
	ErrKind string `json:"err,omitempty"`
	// Spent snapshots the budget governor's ledger after the round
	// (zero without a governor); replay restores it so paid HITs are
	// never re-charged.
	Spent BudgetSpent `json:"spent"`
}

// IsPointRound reports whether the record carries a point round (an
// empty round never journals, so a record is exactly one kind).
func (r RoundRecord) IsPointRound() bool { return r.Points != nil }

// RoundJournal persists committed rounds. Append is called under the
// journaling middleware's round lock — sequentially, after the round's
// answers are in hand — and must make the record durable before
// returning (the file codec fsyncs per append). An Append error fails
// the audit loudly: continuing would commit paid HITs that a crash
// could no longer recover.
type RoundJournal interface {
	Append(RoundRecord) error
}

// ErrJournalMismatch is returned when a replayed run issues a round
// that differs from the journaled one: the journal belongs to a
// different audit configuration (dataset, seed, tau, parallelism mode,
// oracle stack) and silently replaying it would fabricate answers.
var ErrJournalMismatch = errors.New("core: journal replay mismatch")

// JournalingOracle is the checkpoint/resume middleware (NewStack
// places it). It records every committed round to the journal, and —
// when constructed with the records of a previous run — answers those
// rounds by replay without touching the inner oracle, restoring the
// governor's ledger from each record's snapshot, then switches live.
//
// Every Oracle and BatchOracle method funnels through the same
// one-round-per-batch path under one mutex, so rounds serialize and
// each record hits the journal before the next round can commit;
// single queries journal as one-element rounds. Replay is only
// resume-safe for deterministic round sequences — under Lockstep, or
// for single-task sequential audits.
type JournalingOracle struct {
	inner   Oracle
	journal RoundJournal
	gov     *BudgetedOracle
	poolWidth

	mu       sync.Mutex
	ctx      context.Context
	round    int
	replay   []RoundRecord
	replayed int
}

// NewJournalingOracle wraps inner with the journaling middleware.
// journal may be nil (replay without recording); replay may be nil (a
// fresh run). gov, when non-nil, must be the budget governor inside
// inner's stack: live rounds snapshot its spend into each record and
// replayed rounds restore it.
func NewJournalingOracle(inner Oracle, journal RoundJournal, replay []RoundRecord, gov *BudgetedOracle) *JournalingOracle {
	return &JournalingOracle{
		inner:   inner,
		journal: journal,
		gov:     gov,
		ctx:     context.Background(),
		replay:  replay,
	}
}

// SetContext installs the cancellation context checked before every
// round; nil restores context.Background(). A cancelled context fails
// the next round before it reaches the inner oracle, so a killed job
// never half-posts a round.
func (j *JournalingOracle) SetContext(ctx context.Context) *JournalingOracle {
	if ctx == nil {
		ctx = context.Background()
	}
	j.mu.Lock()
	j.ctx = ctx
	j.mu.Unlock()
	return j
}

// Replayed returns how many rounds were answered from the journal.
func (j *JournalingOracle) Replayed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayed
}

// Rounds returns the total rounds committed so far, replayed included.
func (j *JournalingOracle) Rounds() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.round
}

// encodeRoundErr maps a round's outcome to its journaled kind;
// replayable is false for outcomes that must not be journaled (hard
// errors, cancellation).
func encodeRoundErr(err error) (kind string, replayable bool) {
	switch {
	case err == nil:
		return roundErrNone, true
	case errors.Is(err, ErrBudgetExhausted):
		return roundErrBudget, true
	case errors.Is(err, ErrTransient):
		return roundErrTransient, true
	default:
		return "", false
	}
}

// decodeRoundErr is encodeRoundErr's inverse for replay.
func decodeRoundErr(kind string) error {
	switch kind {
	case roundErrNone:
		return nil
	case roundErrBudget:
		return ErrBudgetExhausted
	case roundErrTransient:
		return ErrTransient
	default:
		return fmt.Errorf("%w: unknown journaled outcome %q", ErrJournalMismatch, kind)
	}
}

// nextReplay returns the pending replay record, if any. Callers hold
// j.mu.
func (j *JournalingOracle) nextReplay() (RoundRecord, bool) {
	if j.replayed < len(j.replay) {
		return j.replay[j.replayed], true
	}
	return RoundRecord{}, false
}

// consumeReplay advances past one replayed record and restores the
// governor's ledger from its snapshot — the paid-HIT-never-recharged
// rule: replayed rounds charge nothing, and the governor ends exactly
// where the interrupted run left it. Callers hold j.mu.
func (j *JournalingOracle) consumeReplay(rec RoundRecord) {
	if j.gov != nil {
		j.gov.restoreSpent(rec.Spent)
	}
	j.replayed++
	j.round++
}

// record journals one live round. Outcomes that are not replayable
// pass through unjournaled; a journal append failure overrides the
// round's own outcome — the round committed to the crowd but is no
// longer recoverable, and that must fail loudly. Callers hold j.mu.
func (j *JournalingOracle) record(rec RoundRecord, err error) error {
	kind, replayable := encodeRoundErr(err)
	if !replayable {
		return err
	}
	rec.Round = j.round
	rec.ErrKind = kind
	if j.gov != nil {
		rec.Spent = j.gov.Spent()
	}
	if j.journal != nil {
		if aerr := j.journal.Append(rec); aerr != nil {
			return fmt.Errorf("core: journal append after committed round %d: %w", j.round, aerr)
		}
	}
	j.round++
	return err
}

// SetQueryBatch implements BatchOracle: one committed round per call,
// replayed from the journal while records remain, recorded otherwise.
func (j *JournalingOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	if rec, ok := j.nextReplay(); ok {
		if rec.IsPointRound() || !setRequestsEqual(rec.Sets, reqs) {
			return nil, fmt.Errorf("%w: round %d issued a different set round than the journal recorded", ErrJournalMismatch, j.round)
		}
		j.consumeReplay(rec)
		return append([]bool(nil), rec.SetAnswers...), decodeRoundErr(rec.ErrKind)
	}
	answers, err := AsBatchOracle(j.inner, j.width()).SetQueryBatch(reqs)
	err = j.record(RoundRecord{
		Sets:       cloneSetRequests(reqs),
		SetAnswers: append([]bool{}, answers...),
	}, err)
	return answers, err
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (j *JournalingOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	if rec, ok := j.nextReplay(); ok {
		if !rec.IsPointRound() || !objectIDsEqual(rec.Points, ids) {
			return nil, fmt.Errorf("%w: round %d issued a different point round than the journal recorded", ErrJournalMismatch, j.round)
		}
		j.consumeReplay(rec)
		return clonePointAnswers(rec.PointAnswers), decodeRoundErr(rec.ErrKind)
	}
	labels, err := AsBatchOracle(j.inner, j.width()).PointQueryBatch(ids)
	err = j.record(RoundRecord{
		Points:       append([]dataset.ObjectID{}, ids...),
		PointAnswers: clonePointAnswers(labels),
	}, err)
	return labels, err
}

// SetQuery implements Oracle as a one-element round, so sequential
// audit phases checkpoint too.
func (j *JournalingOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	answers, err := j.SetQueryBatch([]SetRequest{{IDs: ids, Group: g}})
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

// ReverseSetQuery implements Oracle; see SetQuery.
func (j *JournalingOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	answers, err := j.SetQueryBatch([]SetRequest{{IDs: ids, Group: g, Reverse: true}})
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

// PointQuery implements Oracle; see SetQuery.
func (j *JournalingOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	labels, err := j.PointQueryBatch([]dataset.ObjectID{id})
	if err != nil {
		return nil, err
	}
	return labels[0], nil
}

// cloneSetRequests deep-copies a round's requests into the record, so
// a caller reusing its request slices cannot corrupt the journal.
func cloneSetRequests(reqs []SetRequest) []SetRequest {
	out := make([]SetRequest, len(reqs))
	for i, req := range reqs {
		out[i] = SetRequest{
			IDs:     append([]dataset.ObjectID{}, req.IDs...),
			Group:   pattern.Group{Name: req.Group.Name, Members: clonePatterns(req.Group.Members)},
			Reverse: req.Reverse,
		}
	}
	return out
}

// clonePatterns deep-copies a group's member patterns.
func clonePatterns(ps []pattern.Pattern) []pattern.Pattern {
	out := make([]pattern.Pattern, len(ps))
	for i, p := range ps {
		out[i] = append(pattern.Pattern{}, p...)
	}
	return out
}

// clonePointAnswers deep-copies a point round's label vectors.
func clonePointAnswers(labels [][]int) [][]int {
	out := make([][]int, len(labels))
	for i, l := range labels {
		if l != nil {
			out[i] = append([]int{}, l...)
		}
	}
	return out
}

// setRequestsEqual compares rounds field by field (element-wise, so a
// JSON round-trip's nil-vs-empty differences cannot cause spurious
// mismatches).
func setRequestsEqual(a, b []SetRequest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Reverse != b[i].Reverse || a[i].Group.Name != b[i].Group.Name ||
			!objectIDsEqual(a[i].IDs, b[i].IDs) || !patternsEqual(a[i].Group.Members, b[i].Group.Members) {
			return false
		}
	}
	return true
}

// objectIDsEqual compares id slices element-wise.
func objectIDsEqual(a, b []dataset.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// patternsEqual compares pattern slices element-wise.
func patternsEqual(a, b []pattern.Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}
