package core

import (
	"context"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the engine every audit phase posts through: two round
// posters, sets and points, and the round loop over Algorithm 1 walks
// built on sets. Every round reaches the oracle as one BatchOracle
// call through AsBatchOracle(o, Parallelism). An audit runs on one of
// two schedules:
//
//   - Sequential (Parallelism <= 1 without Lockstep): the walks run
//     one after another and every Algorithm 1, Label and Partition
//     round holds one query, so the oracle sees the paper's query
//     order.
//   - Lockstep (Lockstep, or Parallelism > 1): the walks advance
//     together, and a round holds the next queries of every live walk.
//
// The sampling phases (Multiple-Coverage's sample and the classifier's
// precision sample) post as one round on either schedule.
//
// Algorithm 1 is a step machine (groupWalk): next hands out its
// pending set queries and apply consumes their answers. A
// multi-group audit runs one walk per (super-)group. In lockstep mode
// a round holds the next query of every live walk, in canonical
// (task, seq) order: by walk index, where the engine's walk order
// encodes its (super-group, member) ordering, then by the walk's own
// query sequence. A batched single-group audit (GroupCoverageRounds)
// widens the engine's window so its one walk offers its whole queue
// each round. In sequential mode the same loop runs over one walk at
// a time. No goroutine runs per walk or per round.
//
// An order-dependent oracle like the crowd Platform consumes its RNG
// per HIT in arrival order. Round composition and commit order are
// pure functions of committed answers, so an oracle that implements
// BatchOracle natively and answers a batch in request order (the
// Platform does, under one lock) sees the identical query sequence at
// every Parallelism value, making the full crowdsourced pipeline —
// worker draws, aggregation, pricing — bit-for-bit reproducible.
// Parallelism only bounds the one worker pool of a stack: the adapter
// at its bottom that lifts a base oracle without native batching,
// which AsBatchOracle widens through the middleware layers, so batched
// rounds still amortize per-HIT crowd latency.
//
// The context is checked before every round: a cancelled round fails
// before it reaches the oracle, so every round either commits in full
// (and is journaled, if a journal is in the stack) or never touches
// the crowd — the invariant that makes kill-at-round-K exactly
// resumable. A failed round delivers one error to every walk in it. A
// partial-prefix batch (a BudgetedOracle admitting only what the
// remaining budget affords) delivers the committed prefix's answers
// and fails the rest with the batch's error, so a budget exhausts at
// one deterministic point in the canonical query sequence. Retries sit
// below the commit, inside the batch oracle, so a round fails only
// once a query has spent its attempts.

// engine posts an audit's rounds on the schedule its options select.
type engine struct {
	ctx context.Context
	// bo answers every round.
	bo BatchOracle
	// serial selects the sequential schedule: walks one after another,
	// one query per Algorithm 1, Label and Partition round.
	serial bool
	// window is how many pending queries each walk offers a lockstep
	// round: 1, or unbounded for GroupCoverageRounds.
	window int

	// A round's set queries, reused across rounds so a round costs no
	// allocation once warm.
	round []SetRequest
}

// newEngine picks the schedule: lockstep rounds when lockstep is set
// or parallelism > 1, sequential otherwise.
func newEngine(ctx context.Context, o Oracle, lockstep bool, parallelism int) *engine {
	return &engine{
		ctx:    ctx,
		bo:     AsBatchOracle(o, normalizeParallelism(parallelism)),
		serial: !lockstep && parallelism <= 1,
		window: 1,
	}
}

// sets posts one round of set or reverse-set queries as one batch and
// returns the answers of its committed prefix: all of them, unless err
// is set. A cancelled context fails the round before it is posted.
func (e *engine) sets(reqs []SetRequest) ([]bool, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	return e.bo.SetQueryBatch(reqs)
}

// points posts one round of point queries over ids; see sets.
func (e *engine) points(ids []dataset.ObjectID) ([][]int, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	return e.bo.PointQueryBatch(ids)
}

// run drives walks to completion and returns the error of the first
// walk, in walk order, that failed. Lockstep mode runs the walks
// together; sequential mode runs the same loop over one walk at a
// time. Either way a failure stops the audit before another query is
// posted.
func (e *engine) run(walks ...*groupWalk) error {
	if !e.serial {
		return e.rounds(walks)
	}
	for i := range walks {
		if err := e.rounds(walks[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

// rounds posts the next window queries of every walk still running
// as one round through sets, and hands each walk its share of the
// answers, until every walk is done or one has failed.
func (e *engine) rounds(walks []*groupWalk) error {
	for {
		round := e.round[:0]
		for _, w := range walks {
			round = append(round, w.next(e.window)...)
		}
		e.round = round
		if len(round) == 0 {
			return nil
		}
		answers, err := e.sets(round)
		off := 0
		for _, w := range walks {
			if k := len(w.reqs); k > 0 {
				w.apply(answers[min(off, len(answers)):min(off+k, len(answers))], err)
				off += k
			}
		}
		for _, w := range walks {
			if w.err != nil {
				return w.err
			}
		}
	}
}

// DelayOracle adds a fixed per-query wall-clock delay in front of an
// oracle, modeling what dominates a real deployment: every HIT takes
// time to come back from the crowd. It deliberately does NOT implement
// BatchOracle — AsBatchOracle lifts it across a worker pool, so a
// batched round overlaps its queries' round-trips the way concurrently
// posted HITs do. Safe for concurrent use when Inner is.
type DelayOracle struct {
	Inner Oracle
	Delay time.Duration
}

// SetQuery implements Oracle.
func (o DelayOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	time.Sleep(o.Delay)
	return o.Inner.SetQuery(ids, g)
}

// ReverseSetQuery implements Oracle.
func (o DelayOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	time.Sleep(o.Delay)
	return o.Inner.ReverseSetQuery(ids, g)
}

// PointQuery implements Oracle.
func (o DelayOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	time.Sleep(o.Delay)
	return o.Inner.PointQuery(id)
}
