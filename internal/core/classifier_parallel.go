package core

import (
	"context"
	"errors"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the round walk behind ClassifierCoverage — the one
// implementation of Algorithm 4/5, posting every phase as rounds of
// HITs:
//
//   - the precision sample (line 2-3) is a single point-query round
//     over the objects the Rng.Perm draws, in draw order;
//   - the Label phase (Algorithm 5) issues bounded rounds of point
//     queries over the unsampled predicted objects and commits the
//     answers in predicted-set order with a deterministic early stop:
//     each round posts min(max(1, tau - verified), remaining budget
//     headroom) queries — the confirmations still missing, narrowed to
//     what an approaching spend cap affords — and the walk stops at
//     the first index where verified >= tau, discarding later
//     in-flight answers;
//   - the Partition phase (Algorithm 5) runs the divide-and-conquer
//     FIFO queue and posts the front of the queue as one reverse-set
//     round per iteration. The round is clipped to the prefix of nodes
//     whose cumulative size reaches stopAt - confirmed (and to the
//     budget headroom): nodes past that point are pure speculation —
//     if every posted node confirmed, the early stop would already
//     fire — so the over-issue of a wide frontier shrinks exactly when
//     the remaining need is small. Commits follow queue order; an
//     inferred sibling's in-flight answer is discarded and children
//     re-enter the queue at the back, so the committed results are the
//     same for any clip width.
//
// Every phase posts through the engine's sets and points
// (lockstep.go), so the walk has the engine's two modes:
//
//   - Sequential (Parallelism <= 1 without Lockstep): Label and
//     Partition rounds hold one query each, and every round posts its
//     queries one at a time, in order, through the audit's oracle. The
//     oracle stack sees the paper's sequential query sequence.
//   - Lockstep (Lockstep, or Parallelism > 1): every round posts as
//     one batch through the batch oracle, in the order its queries
//     were issued. Round composition is a pure function of previously
//     committed answers — never of Parallelism — so the full
//     ClassifierResult is bit-identical at every Parallelism value
//     even through order-dependent oracles like the crowd Platform.
//
// The residual hunt (lines 6-7 of Algorithm 4) is one Algorithm 1 walk
// on the same engine.
//
// Both modes commit in the same order, so for order-independent
// oracles Strategy, Count, Exact and the task breakdown are the same in
// either; Tasks counts committed queries only. The price of wide
// rounds is over-issue: answers the early stop or the sibling
// inference discards were still real HITs, bounded per phase by one
// round. Budget exhaustion surfaces as a committed prefix of one round
// in canonical order, translated into a partial ClassifierResult with
// Exhausted set.

// classifierEngine posts the walk's phase rounds through its engine.
// gov, when non-nil, is the budget governor already wrapped around the
// oracle; lockstep rounds read its headroom to narrow speculative
// rounds.
type classifierEngine struct {
	*engine
	gov *BudgetedOracle
	g   pattern.Group

	// The Partition round's queued nodes, reused across rounds like the
	// engine's round scratch, which holds the round's requests.
	batch []*node
}

// newClassifierEngine builds the walk's engine for group g.
func newClassifierEngine(o Oracle, gov *BudgetedOracle, ctx context.Context, lockstep bool, parallelism int, g pattern.Group) *classifierEngine {
	return &classifierEngine{engine: newEngine(ctx, o, lockstep, parallelism), gov: gov, g: g}
}

// roundCap bounds the queries of one speculative round: one in
// sequential mode, the governor's headroom for the query shape in
// lockstep mode.
func (e *classifierEngine) roundCap(kind HITKind, setSize int) int {
	if e.bo == nil {
		return 1
	}
	return headroomOf(e.gov, kind, setSize)
}

// labelCleanRounds is the Label function of Algorithm 5 in bounded
// rounds: it point-labels the unsampled predicted objects, reusing the
// sample's labels, in rounds of min(max(1, tau - verified), roundCap)
// queries — the confirmations still missing when the round is posted,
// narrowed to one query in sequential mode and to what the remaining
// budget affords in lockstep mode — and commits the answers in
// predicted-set order. It stops at the first index where verified >=
// tau (marking the count a bound, not exact) and discards any
// in-flight answers past the stop, so the committed task count does
// not depend on the round width. A budget exhaustion commits the
// affordable prefix and reports exhausted.
func (e *classifierEngine) labelCleanRounds(predicted []dataset.ObjectID, sampled map[dataset.ObjectID]bool, truePos, tau int) (verified int, exactClean bool, tasks int, exhausted bool, err error) {
	verified = truePos
	exactClean = true
	var round [][]int // committed answers of the current round
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
			// Post the next round: the next unsampled objects from
			// position i onward, floored at one so an exhausted budget
			// surfaces as a refusal, not a spin.
			want := max(1, min(tau-verified, e.roundCap(HITPoint, 1)))
			roundIDs = roundIDs[:0]
			for j := i; j < len(predicted) && len(roundIDs) < want; j++ {
				if !sampled[predicted[j]] {
					roundIDs = append(roundIDs, predicted[j])
				}
			}
			round, err = e.points(roundIDs)
			if err != nil && !errors.Is(err, ErrBudgetExhausted) {
				return verified, exactClean, tasks, false, err
			}
			pos = 0
		}
		if pos >= len(round) {
			return verified, exactClean, tasks, true, nil
		}
		labels := round[pos]
		pos++
		tasks++
		if e.g.Matches(labels) {
			verified++
		}
	}
	return verified, exactClean, tasks, false, nil
}

// partitionCleanRounds is the Partition function of Algorithm 5 in
// clipped rounds: it verifies the predicted-positive set with
// divide-and-conquer reverse set queries ("is anyone here NOT in g?")
// driven by a FIFO queue, posting the front of the queue as one round.
// The clip takes nodes until their cumulative size reaches stopAt -
// confirmed (posting more is pure speculation: were every posted node
// clean, the early stop would already fire) and never more than
// roundCap queries, always at least one node. A "no" confirms the
// whole range as genuine members and infers a task-free "yes" on its
// right sibling — wherever that sibling sits, in this round (its
// in-flight answer is discarded) or still unposted in the queue; a
// "yes" splits the range, isolating false positives in singletons. A
// committed walk reaching stopAt returns immediately, discarding the
// rest of its round, and a full drain makes the confirmed count exact.
// Round composition depends only on committed answers, never on the
// pool width.
//
// As in groupWalk, the initial blocks precede every child in FIFO
// order and sibling inference never removes one, so the walk hands
// them out with a cursor (blk) and queues only children: a block gets
// a node only when it splits.
func (e *classifierEngine) partitionCleanRounds(predicted []dataset.ObjectID, n, stopAt int) (confirmed int, drained bool, tasks int, exhausted bool, err error) {
	q := newQueue()
	blk := 0 // start of the next initial block not yet answered
	for blk < len(predicted) || !q.empty() {
		// Clip the round: enough front-of-queue entries to reach the
		// remaining need if all confirm, within the round cap. The
		// round holds blocks initial blocks from blk on, then the
		// queued nodes in batch.
		need := stopAt - confirmed
		room := e.roundCap(HITReverseSet, n)
		batch, reqs := e.batch[:0], e.round[:0]
		blocks, sum, full := 0, 0, false
		for b := blk; b < len(predicted) && !full; b += n {
			end := min(b+n, len(predicted))
			reqs = append(reqs, SetRequest{IDs: predicted[b:end], Group: e.g, Reverse: true})
			blocks++
			sum += end - b
			full = sum >= need || len(reqs) >= room
		}
		for t := q.front(); t != nil && !full; t = q.next(t) {
			batch = append(batch, t)
			reqs = append(reqs, SetRequest{IDs: predicted[t.b:t.e], Group: e.g, Reverse: true})
			sum += t.size()
			full = sum >= need || len(reqs) >= room
		}
		e.batch, e.round = batch, reqs
		answers, err := e.sets(reqs)
		if err != nil && !errors.Is(err, ErrBudgetExhausted) {
			return confirmed, false, tasks, false, err
		}

		for idx := range reqs {
			var t *node // nil for an initial block
			if idx >= blocks {
				if t = batch[idx-blocks]; !t.inQueue {
					continue // answered for free by its left sibling
				}
			}
			if idx >= len(answers) {
				// Budget exhausted: the walk stops at the first
				// uncommitted answer.
				return confirmed, false, tasks, true, nil
			}
			var b, end int
			if t == nil {
				b, end = blk, min(blk+n, len(predicted))
				blk += n
			} else {
				q.remove(t)
				b, end = t.b, t.e
			}
			hasFP := answers[idx]
			tasks++

		process:
			if !hasFP {
				// The whole range is verified members of g.
				confirmed += end - b
				if confirmed >= stopAt {
					return confirmed, false, tasks, false, nil
				}
				// Sibling inference, mirrored: our parent contains a
				// false positive and we contain none, so the right
				// sibling must.
				if t != nil && t.parent != nil && t == t.parent.left {
					sib := t.parent.right
					if sib != nil && sib.inQueue {
						q.remove(sib)
						t, b, end = sib, sib.b, sib.e
						hasFP = true
						goto process
					}
				}
				continue
			}
			if end-b == 1 {
				continue // isolated false positive: discard
			}
			if t == nil {
				t = &node{b: b, e: end}
			}
			mid := (b + end) / 2
			kids := new([2]node) // one allocation per split
			kids[0] = node{b: b, e: mid, parent: t}
			kids[1] = node{b: mid, e: end, parent: t}
			t.left, t.right = &kids[0], &kids[1]
			q.push(t.left)
			q.push(t.right)
		}
	}
	return confirmed, true, tasks, false, nil
}
