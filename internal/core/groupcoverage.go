package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// GroupResult reports the outcome of auditing one group.
type GroupResult struct {
	// Group is the audited group.
	Group pattern.Group
	// Covered is true when at least Tau objects of the group were
	// established to exist.
	Covered bool
	// Count is the discovered lower bound on |g|. When Covered is
	// false and Exact is true it equals |g| exactly (the algorithm has
	// examined the entire search space).
	Count int
	// Exact marks Count as the exact group size.
	Exact bool
	// Exhausted marks an audit a budget governor stopped early: the
	// verdict is undecided (Covered false, Exact false) and Count is
	// the lower bound proven by the queries that did commit. See
	// Budget.
	Exhausted bool
	// Tasks is the number of crowd tasks this audit committed. A
	// batched audit may post more: answers dropped after the stop or
	// under an inferred sibling were paid but are not counted.
	Tasks int
}

// RoundsResult reports a batched audit (GroupCoverageRounds): the
// verdict plus the rounds it took.
type RoundsResult struct {
	GroupResult
	// Rounds is the number of rounds the audit posted, at most
	// 1+ceil(log2 n). With crowd platforms the wall-clock latency of
	// an audit is dominated by rounds (every HIT in a round runs
	// concurrently on the platform), not by the task count.
	Rounds int
}

// String implements fmt.Stringer.
func (r GroupResult) String() string {
	verdict := "uncovered"
	if r.Covered {
		verdict = "covered"
	}
	if r.Exhausted {
		verdict = "undecided (budget exhausted)"
	}
	exact := ""
	if r.Exact {
		exact = " (exact)"
	}
	return fmt.Sprintf("%s: %s, count>=%d%s, %d tasks", r.Group, verdict, r.Count, exact, r.Tasks)
}

// GroupCoverageOptions toggles individual design choices of
// Algorithm 1 for ablation studies. The zero value is the full
// algorithm as published.
type GroupCoverageOptions struct {
	// DisableSiblingInference issues a real task for a right sibling
	// whose "yes" answer is logically implied (parent yes, left
	// sibling no), instead of claiming it for free.
	DisableSiblingInference bool
	// CountSingletonsOnly replaces the checked-based lower bound with
	// naive counting: only singleton "yes" queries (definite
	// individuals) increment the count, forcing full drill-downs.
	CountSingletonsOnly bool
	// Trace, when non-nil, records the execution tree (every asked or
	// inferred set query) for visualization and debugging.
	Trace *ExecutionTrace
}

// GroupCoverage is Algorithm 1: it decides whether group g is covered
// (has at least tau members) among the objects ids, issuing set
// queries of at most n objects.
//
// The dataset is partitioned into ceil(N/n) subsets, each the root of
// a binary tree of set queries. A "no" answer prunes its subtree; a
// "no" on a left child additionally implies — for free, without a
// task — a "yes" on its right sibling, because their parent answered
// "yes". Disjoint "yes" sets lower-bound |g|, and the audit stops as
// soon as the bound reaches tau. If the queue drains first, every
// group member has been isolated in a singleton query, so the final
// count is exact and below tau.
//
// The worst case issues Theta(N/n + tau*log n) tasks (Theorem 3.2 and
// Lemma 3.3), a small additive overhead on the N/n lower bound any
// correct algorithm needs.
func GroupCoverage(o Oracle, ids []dataset.ObjectID, n, tau int, g pattern.Group) (GroupResult, error) {
	return GroupCoverageOpt(o, ids, n, tau, g, GroupCoverageOptions{})
}

// GroupCoverageOpt is GroupCoverage with ablation options; see
// GroupCoverageOptions. It runs one walk in sequential mode, posting
// each query as a one-query round through o.
func GroupCoverageOpt(o Oracle, ids []dataset.ObjectID, n, tau int, g pattern.Group, opts GroupCoverageOptions) (GroupResult, error) {
	if err := checkGroupArgs(o, n, tau); err != nil {
		return GroupResult{Group: g}, err
	}
	w := newGroupWalk(ids, n, tau, g, opts)
	err := newEngine(context.Background(), o, false, 1).run(w)
	return w.res, err
}

// GroupCoverageRounds is Algorithm 1 posted in rounds as wide as its
// queue, the way HIT groups are posted to a crowd platform: each round
// offers every pending set query as one SetQueryBatch through
// AsBatchOracle(o, parallelism), and commits the answers in queue
// order with the paper's rules. An answer posted after the cnt >= tau
// stop, or for a right sibling its left sibling's no already settled,
// is dropped. Those HITs were paid but are not counted in Tasks, so
// the result equals GroupCoverage's for an order-independent oracle.
// Latency drops from one wait per task to at most 1+ceil(log2 n)
// rounds, one per tree level.
//
// The context is checked before every round; a nil ctx means
// context.Background(). The oracle must be safe for concurrent use
// unless it implements BatchOracle natively (TruthOracle and the crowd
// platform do).
func GroupCoverageRounds(ctx context.Context, o Oracle, ids []dataset.ObjectID, n, tau int, g pattern.Group, parallelism int) (RoundsResult, error) {
	if err := checkGroupArgs(o, n, tau); err != nil {
		return RoundsResult{GroupResult: GroupResult{Group: g}}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := newGroupWalk(ids, n, tau, g, GroupCoverageOptions{})
	e := newEngine(ctx, o, true, parallelism)
	e.window = math.MaxInt
	err := e.run(w)
	return RoundsResult{GroupResult: w.res, Rounds: w.rounds}, err
}

// checkGroupArgs validates the arguments every Algorithm 1 entry point
// shares.
func checkGroupArgs(o Oracle, n, tau int) error {
	switch {
	case o == nil:
		return errors.New("core: nil oracle")
	case n < 1:
		return fmt.Errorf("core: set size bound n=%d, need >= 1", n)
	case tau < 0:
		return fmt.Errorf("core: coverage threshold tau=%d, need >= 0", tau)
	}
	return nil
}

// groupWalk is Algorithm 1 as a step machine: next hands out the
// walk's pending set queries and apply consumes their answers, so the
// round loop (lockstep.go) can post the queries of many walks as one
// round, or one walk's queries one per round, without a goroutine per
// walk.
//
// The paper's FIFO queue holds the ceil(N/n) initial blocks first and
// every child after them, and sibling inference only ever removes a
// right child. So the walk hands the initial blocks out with a cursor
// (blk) and queues only children. A block gets a tree node only when
// it answers yes, as the parent of its two children.
type groupWalk struct {
	ids    []dataset.ObjectID
	n, tau int
	g      pattern.Group
	opts   GroupCoverageOptions

	res    GroupResult
	cnt    int   // the proven lower bound on |g|
	done   bool  // res is final
	err    error // the oracle error that ended the walk, if any
	rounds int   // apply calls: the rounds the walk took part in

	blk int   // start of the next initial block not yet answered
	q   queue // children of yes nodes, in FIFO order

	// The queries handed out by the last next call: blocks initial
	// blocks from blk on, then the queued nodes.
	reqs   []SetRequest
	blocks int
	nodes  []*node
}

// newGroupWalk starts Algorithm 1 for group g over ids, with set size
// bound n >= 1 and threshold tau >= 0.
func newGroupWalk(ids []dataset.ObjectID, n, tau int, g pattern.Group, opts GroupCoverageOptions) *groupWalk {
	w := &groupWalk{ids: ids, n: n, tau: tau, g: g, opts: opts, res: GroupResult{Group: g}}
	w.q.init()
	switch {
	case tau == 0:
		// Zero members suffice: trivially covered at no cost.
		w.res.Covered, w.done = true, true
	case len(ids) == 0:
		w.res.Exact, w.done = true, true
	}
	return w
}

// next returns the first limit pending set queries in FIFO order, or
// none once the walk is done. The slice is valid until the next call.
func (w *groupWalk) next(limit int) []SetRequest {
	w.reqs, w.blocks, w.nodes = w.reqs[:0], 0, w.nodes[:0]
	if w.done {
		return nil
	}
	for b := w.blk; b < len(w.ids) && len(w.reqs) < limit; b += w.n {
		w.reqs = append(w.reqs, SetRequest{IDs: w.ids[b:min(b+w.n, len(w.ids))], Group: w.g})
		w.blocks++
	}
	for t := w.q.front(); t != nil && len(w.reqs) < limit; t = w.q.next(t) {
		w.reqs = append(w.reqs, SetRequest{IDs: w.ids[t.b:t.e], Group: w.g})
		w.nodes = append(w.nodes, t)
	}
	return w.reqs
}

// apply consumes the answers to the last next call's queries, in
// order. A failed round commits only a prefix: answers holds the
// committed answers and err the failure of the rest, which ends the
// walk. An answer is dropped when sibling inference already settled
// its query for free earlier in the same call, and every answer after
// the cnt >= tau stop is dropped too.
func (w *groupWalk) apply(answers []bool, err error) {
	w.rounds++
	for j := 0; j < len(w.reqs) && !w.done; j++ {
		var t *node // nil for an initial block
		if j >= w.blocks {
			if t = w.nodes[j-w.blocks]; !t.inQueue {
				continue
			}
		}
		if j >= len(answers) {
			w.fail(err)
			return
		}
		if t == nil {
			b := w.blk
			w.blk += w.n
			w.visit(nil, b, min(b+w.n, len(w.ids)), answers[j])
		} else {
			w.q.remove(t)
			w.visit(t, t.b, t.e, answers[j])
		}
	}
	if !w.done && w.blk >= len(w.ids) && w.q.empty() {
		// Queue drained below tau: every yes reached a singleton, so
		// cnt is the exact group size (Lemma 3.1).
		w.res.Count = w.cnt
		w.res.Exact, w.done = true, true
	}
}

// fail ends the walk on a failed query.
func (w *groupWalk) fail(err error) {
	w.done = true
	switch {
	case errors.Is(err, ErrBudgetExhausted):
		// A budget cap is a configured stopping rule, not a failure:
		// report the bound proven so far undecided.
		w.res.Count = w.cnt
		w.res.Exhausted = true
	case err == nil:
		w.err = errors.New("core: oracle round answered too few queries")
	default:
		w.err = err
	}
}

// visit applies one committed answer to the query over [b, e), whose
// node is t (nil for an initial block).
func (w *groupWalk) visit(t *node, b, e int, ans bool) {
	w.res.Tasks++
	var parent *node
	if t != nil {
		parent = t.parent
	}
	if w.opts.Trace != nil {
		w.opts.Trace.record(b, e, parent, ans, false)
	}
	if !ans {
		// Prune the subtree (lines 9, 11). For a left child, the right
		// sibling must answer yes (the parent did), so claim that
		// answer without issuing a task (lines 12-13) — unless the
		// ablation disables the inference.
		if parent == nil || w.opts.DisableSiblingInference {
			return
		}
		sib := parent.right
		if t != parent.left || sib == nil || !sib.inQueue {
			return
		}
		w.q.remove(sib)
		t, b, e = sib, sib.b, sib.e
		if w.opts.Trace != nil {
			w.opts.Trace.record(b, e, parent, true, true)
		}
	}
	// [b, e) answered (or is implied to answer) yes.
	switch {
	case w.opts.CountSingletonsOnly:
		// Ablation: only definite individuals count.
		if e-b == 1 {
			w.cnt++
		}
	case parent == nil:
		w.cnt++
	case parent.checked:
		// Lines 14-15: the parent already contributed one member to
		// the bound; a second yes-child proves another.
		w.cnt++
	default:
		parent.checked = true
	}
	if w.cnt >= w.tau {
		w.res.Covered = true
		w.res.Count = w.cnt
		w.done = true
		return
	}
	if e-b > 1 {
		if t == nil {
			t = &node{b: b, e: e}
		}
		mid := (b + e) / 2
		kids := new([2]node) // one allocation per split
		kids[0] = node{b: b, e: mid, parent: t}
		kids[1] = node{b: mid, e: e, parent: t}
		t.left, t.right = &kids[0], &kids[1]
		w.q.push(t.left)
		w.q.push(t.right)
	}
}

// BaseCoverage is Algorithm 7, the baseline the paper compares
// against: label objects one by one with point queries until tau group
// members are found or the data runs out. It is the classifier's Label
// phase over every object, on a sequential engine: one point query per
// round, in ids order.
func BaseCoverage(o Oracle, ids []dataset.ObjectID, tau int, g pattern.Group) (GroupResult, error) {
	if o == nil {
		return GroupResult{Group: g}, errors.New("core: nil oracle")
	}
	if tau < 0 {
		return GroupResult{Group: g}, fmt.Errorf("core: coverage threshold tau=%d, need >= 0", tau)
	}
	e := newClassifierEngine(o, nil, context.Background(), false, 1, g)
	cnt, exact, tasks, exhausted, err := e.labelCleanRounds(ids, nil, 0, tau)
	if err != nil {
		return GroupResult{Group: g, Tasks: tasks}, err
	}
	covered := cnt >= tau
	return GroupResult{
		Group:     g,
		Covered:   covered,
		Count:     cnt,
		Exact:     exact && !covered && !exhausted,
		Exhausted: exhausted,
		Tasks:     tasks,
	}, nil
}
