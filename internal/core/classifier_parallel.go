package core

import (
	"context"
	"errors"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the batched round engine behind
// ClassifierOptions.Parallelism — Algorithm 4/5 with every
// phase posting whole rounds of HITs instead of one at a time:
//
//   - the precision sample (line 2-3) becomes a single point-query
//     round over the same objects, in the same order, the sequential
//     loop would draw (both engines share the Rng.Perm consumption);
//   - the Label phase (Algorithm 5) issues bounded rounds of point
//     queries over the unsampled predicted objects and commits the
//     answers in predicted-set order with a deterministic early stop:
//     each round posts min(max(1, tau - verified), remaining budget
//     headroom) queries — the confirmations still missing, narrowed to
//     what an approaching spend cap affords — and the walk stops at
//     the first index where verified >= tau, discarding later
//     in-flight answers;
//   - the Partition phase (Algorithm 5) runs the divide-and-conquer
//     queue of the sequential engine, but posts the front of the queue
//     as one reverse-set round per iteration. The round is clipped to
//     the prefix of nodes whose cumulative size reaches stopAt -
//     confirmed (and to the budget headroom): nodes past that point
//     are pure speculation — if every posted node confirmed, the early
//     stop would already fire — so the over-issue of a wide frontier
//     shrinks exactly when the remaining need is small. Commit order,
//     sibling inference and the early stop replicate partitionClean
//     verbatim (an inferred sibling's in-flight answer is discarded,
//     children re-enter the queue at the back), so the committed
//     results equal the sequential engine's for any clip width.
//
// Round composition is a pure function of previously committed answers
// — never of Parallelism — so the engine is level-synchronous by
// construction: the rounds commit through the canonical lockstep
// scheduler as one BatchOracle batch in issue order, making the full
// ClassifierResult bit-identical at every Parallelism value even
// through order-dependent oracles like the crowd Platform.
//
// Determinism vs cost: the commit walks replicate the sequential
// loops' visit order exactly, so Strategy, Count, Exact and the task
// breakdown equal the sequential engine's for order-independent
// oracles — Tasks counts committed queries only. The price of posting
// rounds speculatively is over-issue: answers the early stop or the
// sibling inference discards were still real HITs (the same tradeoff
// GroupCoverageRounds documents), bounded per phase by one round.
// Budget exhaustion surfaces as a committed prefix of one round in
// canonical order, translated into a partial ClassifierResult with
// Exhausted set.

// classifierEngine dispatches one phase round at a time through
// runLockstep, one task per in-flight query, so the round commits as
// one canonical BatchOracle batch. gov, when non-nil, is the budget
// governor already wrapped around o; the engine reads its headroom to
// narrow speculative rounds.
type classifierEngine struct {
	o           Oracle
	gov         *BudgetedOracle
	ctx         context.Context
	parallelism int
}

// pointRound posts one round of point queries. ok[i] marks answers
// that committed; a budget exhaustion returns the committed flags with
// ErrBudgetExhausted, any other failure aborts the round.
func (e *classifierEngine) pointRound(ids []dataset.ObjectID) (labels [][]int, ok []bool, err error) {
	labels = make([][]int, len(ids))
	ok = make([]bool, len(ids))
	err = runLockstep(e.ctx, e.o, e.parallelism, len(ids), func(i int, audit Oracle) error {
		var qerr error
		labels[i], qerr = audit.PointQuery(ids[i])
		ok[i] = qerr == nil
		return qerr
	})
	if err != nil && !errors.Is(err, ErrBudgetExhausted) {
		return nil, nil, err
	}
	return labels, ok, err
}

// reverseRound posts one round of reverse set queries ("is anyone here
// NOT in g?"); see pointRound for the ok/error convention.
func (e *classifierEngine) reverseRound(sets [][]dataset.ObjectID, g pattern.Group) (answers []bool, ok []bool, err error) {
	answers = make([]bool, len(sets))
	ok = make([]bool, len(sets))
	err = runLockstep(e.ctx, e.o, e.parallelism, len(sets), func(i int, audit Oracle) error {
		var qerr error
		answers[i], qerr = audit.ReverseSetQuery(sets[i], g)
		ok[i] = qerr == nil
		return qerr
	})
	if err != nil && !errors.Is(err, ErrBudgetExhausted) {
		return nil, nil, err
	}
	return answers, ok, err
}

// classifierCoverageParallel is Algorithm 4 on the batched round
// engine; ClassifierCoverage dispatches here when opts.Lockstep or
// opts.Parallelism > 1 (inputs already validated, defaults resolved,
// predicted non-empty, budget governor already applied to o).
func classifierCoverageParallel(o Oracle, gov *BudgetedOracle, ids, predicted []dataset.ObjectID, inPredicted map[dataset.ObjectID]bool, n, tau int, g pattern.Group, opts ClassifierOptions, res ClassifierResult) (ClassifierResult, error) {
	e := &classifierEngine{o: o, gov: gov, ctx: opts.context(), parallelism: opts.Parallelism}

	// Line 2-3: estimate precision on a sample of G, posted as one
	// point-query round over exactly the objects — in exactly the order
	// — the sequential loop would draw.
	sampleSize := sampleBudget(opts.SampleFraction, len(predicted))
	sample := make([]dataset.ObjectID, 0, sampleSize)
	for _, idx := range opts.Rng.Perm(len(predicted))[:sampleSize] {
		sample = append(sample, predicted[idx])
	}
	labels, oks, err := e.pointRound(sample)
	if err != nil && !errors.Is(err, ErrBudgetExhausted) {
		return res, err
	}
	sampled := make(map[dataset.ObjectID]bool, sampleSize)
	truePos := 0
	for i, id := range sample {
		if !oks[i] {
			// Budget exhausted mid-sample: commit the answered prefix
			// and settle.
			return classifierExhausted(res, truePos, tau), nil
		}
		res.SampleTasks++
		sampled[id] = true
		if g.Matches(labels[i]) {
			truePos++
		}
	}
	if err != nil {
		return classifierExhausted(res, truePos, tau), nil
	}
	res.EstFPRate = 1 - float64(truePos)/float64(sampleSize)

	// Line 4-5: eliminate false positives, one batched phase per
	// strategy.
	verified := 0
	var exactClean, exhausted bool
	if res.EstFPRate < opts.FPRateThreshold {
		res.Strategy = StrategyPartition
		confirmed, drained, tasks, exh, err := e.partitionCleanRounds(predicted, n, tau, g)
		if err != nil {
			return res, err
		}
		res.CleanupTasks = tasks
		verified = confirmed
		exactClean = drained
		exhausted = exh
	} else {
		res.Strategy = StrategyLabel
		var tasks int
		var exh bool
		verified, exactClean, tasks, exh, err = e.labelCleanRounds(predicted, sampled, truePos, tau, g)
		if err != nil {
			return res, err
		}
		res.CleanupTasks = tasks
		exhausted = exh
	}
	if exhausted {
		return classifierExhausted(res, verified, tau), nil
	}

	return classifierFinish(o, ids, inPredicted, n, tau, verified, exactClean, g, res)
}

// labelCleanRounds is the Label function of Algorithm 5 in bounded
// rounds: it point-labels the unsampled predicted objects, reusing the
// sample's labels, in rounds of min(max(1, tau - verified), budget
// headroom) queries — the confirmations still missing when the round
// is posted, narrowed to what the remaining budget affords — and
// commits the answers in predicted-set order. The walk mirrors the
// sequential loop exactly: it stops at the first index where
// verified >= tau (marking the count a bound, not exact) and discards
// any in-flight answers past the stop, so the committed task count is
// both width-independent and equal to the sequential engine's. A
// budget exhaustion commits the affordable prefix and reports
// exhausted.
func (e *classifierEngine) labelCleanRounds(predicted []dataset.ObjectID, sampled map[dataset.ObjectID]bool, truePos, tau int, g pattern.Group) (verified int, exactClean bool, tasks int, exhausted bool, err error) {
	verified = truePos
	exactClean = true
	var round [][]int // uncommitted answers of the current round
	var roundOK []bool
	var roundIDs []dataset.ObjectID
	pos := 0 // next uncommitted answer within the round
	for i := 0; i < len(predicted); i++ {
		if verified >= tau {
			exactClean = false // stopped early: count is a bound
			return verified, exactClean, tasks, false, nil
		}
		id := predicted[i]
		if sampled[id] {
			continue
		}
		if pos >= len(roundIDs) {
			// Post the next round: the next max(1, tau - verified)
			// unsampled objects from position i onward, clipped to the
			// budget's point-query headroom (floored at one so an
			// exhausted budget surfaces as a refusal, not a spin).
			want := tau - verified
			if h := headroomOf(e.gov, HITPoint, 1); h < want {
				want = h
			}
			if want < 1 {
				want = 1
			}
			roundIDs = roundIDs[:0]
			for j := i; j < len(predicted) && len(roundIDs) < want; j++ {
				if !sampled[predicted[j]] {
					roundIDs = append(roundIDs, predicted[j])
				}
			}
			round, roundOK, err = e.pointRound(roundIDs)
			if err != nil && !errors.Is(err, ErrBudgetExhausted) {
				return verified, exactClean, tasks, false, err
			}
			pos = 0
		}
		if !roundOK[pos] {
			return verified, exactClean, tasks, true, nil
		}
		labels := round[pos]
		pos++
		tasks++
		if g.Matches(labels) {
			verified++
		}
	}
	return verified, exactClean, tasks, false, nil
}

// partitionCleanRounds is the Partition function of Algorithm 5 in
// clipped rounds: the sequential engine's FIFO queue drives the walk,
// but each iteration posts the front of the queue as one reverse-set
// round. The clip takes nodes until their cumulative size reaches
// stopAt - confirmed (posting more is pure speculation: were every
// posted node clean, the early stop would already fire) and never more
// queries than the budget's headroom affords, always at least one
// node. Commit semantics are partitionClean's, verbatim: a "no"
// confirms the range and may infer a task-free "yes" on its right
// sibling — wherever that sibling sits, in this round (its in-flight
// answer is discarded) or still unposted in the queue — a committed
// walk reaching stopAt returns immediately discarding the rest of its
// round, and a full drain makes the confirmed count exact. Round
// composition depends only on committed answers, never on the pool
// width.
func (e *classifierEngine) partitionCleanRounds(predicted []dataset.ObjectID, n, stopAt int, g pattern.Group) (confirmed int, drained bool, tasks int, exhausted bool, err error) {
	if len(predicted) == 0 {
		return 0, true, 0, false, nil
	}
	q := newQueue()
	for i := 0; i < len(predicted); i += n {
		end := i + n
		if end > len(predicted) {
			end = len(predicted)
		}
		q.push(&node{b: i, e: end})
	}
	for !q.empty() {
		// Clip the round: enough front-of-queue nodes to reach the
		// remaining need if all confirm, within budget headroom.
		need := stopAt - confirmed
		room := headroomOf(e.gov, HITReverseSet, n)
		batch := make([]*node, 0, q.len())
		sum := 0
		for t := q.front(); t != nil; t = q.next(t) {
			batch = append(batch, t)
			sum += t.size()
			if sum >= need || len(batch) >= room {
				break
			}
		}
		sets := make([][]dataset.ObjectID, len(batch))
		for i, t := range batch {
			sets[i] = predicted[t.b:t.e]
		}
		answers, oks, err := e.reverseRound(sets, g)
		if err != nil && !errors.Is(err, ErrBudgetExhausted) {
			return confirmed, false, tasks, false, err
		}

		for idx, t := range batch {
			if !t.inQueue {
				continue // answered for free by its left sibling
			}
			if !oks[idx] {
				// Budget exhausted: the walk stops at the first
				// uncommitted answer.
				return confirmed, false, tasks, true, nil
			}
			q.remove(t)
			hasFP := answers[idx]
			tasks++

		process:
			if !hasFP {
				// The whole range is verified members of g.
				confirmed += t.size()
				if confirmed >= stopAt {
					return confirmed, false, tasks, false, nil
				}
				// Sibling inference, mirrored from partitionClean: our
				// parent contains a false positive and we contain none,
				// so the right sibling must.
				if t.parent != nil && t == t.parent.left {
					sib := t.parent.right
					if sib != nil && sib.inQueue {
						q.remove(sib)
						t = sib
						hasFP = true
						goto process
					}
				}
				continue
			}
			if t.size() == 1 {
				continue // isolated false positive: discard
			}
			mid := (t.b + t.e) / 2
			t.left = &node{b: t.b, e: mid, parent: t}
			t.right = &node{b: mid, e: t.e, parent: t}
			q.push(t.left)
			q.push(t.right)
		}
	}
	return confirmed, true, tasks, false, nil
}
