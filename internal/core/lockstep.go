package core

import (
	"context"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the round loop every audit engine posts through. An
// audit runs in one of two modes:
//
//   - Sequential (Parallelism <= 1 without Lockstep): every query is
//     posted alone, through the audit's oracle, in the paper's order.
//   - Lockstep (Lockstep, or Parallelism > 1): the audit advances in
//     rounds, and each round commits as one BatchOracle batch through
//     AsBatchOracle(o, Parallelism).
//
// Algorithm 1 is a step machine (groupWalk): next hands out its
// pending set queries and apply consumes their answers. A
// multi-group audit runs one walk per (super-)group. In lockstep mode
// a round holds the next query of every live walk, in canonical
// (task, seq) order: by walk index, where the engine's walk order
// encodes its (super-group, member) ordering, then by the walk's own
// query sequence. A batched single-group audit (GroupCoverageRounds)
// widens the engine's window so its one walk offers its whole queue
// each round. In sequential mode the walks run one after another.
// One loop does both, with no goroutine per walk or per round.
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
// The context is checked before every commit: a cancelled round fails
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

// engine posts an audit's queries in the mode its options select.
type engine struct {
	ctx context.Context
	// o answers sequential mode's queries, one at a time.
	o Oracle
	// bo commits lockstep mode's rounds; nil in sequential mode.
	bo BatchOracle
	// window is how many pending queries each walk offers a lockstep
	// round: 1, or unbounded for GroupCoverageRounds.
	window int
}

// newEngine picks the mode: lockstep rounds when lockstep is set or
// parallelism > 1, sequential queries otherwise.
func newEngine(ctx context.Context, o Oracle, lockstep bool, parallelism int) engine {
	e := engine{ctx: ctx, o: o, window: 1}
	if lockstep || parallelism > 1 {
		e.bo = AsBatchOracle(o, normalizeParallelism(parallelism))
	}
	return e
}

// run drives walks to completion and returns the error of the first
// walk, in walk order, that failed. Lockstep mode posts the next
// window queries of every live walk as one round; sequential mode runs
// the walks one after another, each query alone. Either way a failure
// stops the audit before another query is posted.
func (e engine) run(walks ...*groupWalk) error {
	if e.bo == nil {
		var one [1]bool
		for _, w := range walks {
			for reqs := w.next(1); len(reqs) > 0; reqs = w.next(1) {
				err := e.ctx.Err()
				if err == nil {
					one[0], err = e.o.SetQuery(reqs[0].IDs, reqs[0].Group)
				}
				if err != nil {
					w.apply(nil, err)
				} else {
					w.apply(one[:], nil)
				}
			}
			if w.err != nil {
				return w.err
			}
		}
		return nil
	}
	live := append([]*groupWalk(nil), walks...)
	var round []SetRequest
	for {
		round = round[:0]
		keep := live[:0]
		for _, w := range live {
			if reqs := w.next(e.window); len(reqs) > 0 {
				round = append(round, reqs...)
				keep = append(keep, w)
			}
		}
		live = keep
		if len(round) == 0 {
			return nil
		}
		var answers []bool
		err := e.ctx.Err()
		if err == nil {
			answers, err = e.bo.SetQueryBatch(round)
		}
		off := 0
		for _, w := range live {
			k := len(w.reqs)
			w.apply(answers[min(off, len(answers)):min(off+k, len(answers))], err)
			off += k
		}
		for _, w := range live {
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
