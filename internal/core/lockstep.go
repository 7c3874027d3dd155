package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the deterministic lockstep scheduler: every concurrent
// audit (Parallelism > 1, or MultipleOptions.Lockstep at any width)
// runs on it. An order-dependent oracle like the crowd Platform
// consumes its RNG per HIT in arrival order, and arrival order under a
// plain worker pool depends on goroutine interleaving. Lockstep
// removes that dependence by executing audits in virtual rounds:
//
//   - every audit task runs in its own goroutine regardless of
//     Parallelism, so the set of concurrently live tasks — and with it
//     the composition of every round — never depends on the pool
//     width;
//   - a task that needs an oracle answer parks its query and blocks;
//     when every live task is parked (or finished), the round is
//     complete;
//   - the round's queries are ordered canonically — by task index,
//     then per-task query sequence, where the task index encodes the
//     engine's (super-group, member) ordering — and committed through
//     one BatchOracle round (SetQueryBatch, then PointQueryBatch);
//   - answers release the tasks, which compute to their next query.
//
// Because round composition and commit order are both schedule-free,
// an order-dependent oracle that implements BatchOracle natively (the
// crowd Platform answers a batch in request order under one lock) sees
// the identical query sequence at every Parallelism value, making the
// full crowdsourced pipeline — worker draws, Dawid-Skene-style
// aggregation, pricing — bit-for-bit reproducible. Parallelism only
// bounds the one worker pool of a stack: the adapter at its bottom
// that lifts a base oracle without native batching, which
// AsBatchOracle widens through the middleware layers, so batched rounds
// still amortize per-HIT crowd latency.

// lockstepQuery is one parked oracle query awaiting its round.
type lockstepQuery struct {
	// task and seq give the query its canonical position: task is the
	// audit's index in the engine's fixed task order, seq the query's
	// per-task issue number.
	task, seq int
	// point selects PointQuery (id) over a set query (req).
	point bool
	id    dataset.ObjectID
	req   SetRequest
	// done publishes the outcome under the scheduler lock.
	done   bool
	ans    bool
	labels []int
	err    error
}

// orderCanonically sorts a round into its commit order: by task index,
// then per-task sequence. The fuzz harness drives this ordering with
// randomized arrival orders.
func orderCanonically(round []*lockstepQuery) {
	sort.Slice(round, func(i, j int) bool {
		if round[i].task != round[j].task {
			return round[i].task < round[j].task
		}
		return round[i].seq < round[j].seq
	})
}

// lockstep coordinates one group of audit tasks through virtual
// rounds.
type lockstep struct {
	bo  BatchOracle
	ctx context.Context

	mu     sync.Mutex
	cond   *sync.Cond
	live   int // tasks neither finished nor aborted
	parked []*lockstepQuery
	err    error // sticky abort: set once a task finishes with an error

	// Round scratch, recycled across rounds so a long audit stops
	// allocating per round: spare ping-pongs with parked's backing
	// array, and sets/points/setReqs/pointIDs are the commit path's
	// working slices. All of it is touched only under mu or while every
	// live task sits in cond.Wait, and none of it is ever handed to
	// code outside the scheduler (batch oracles receive setReqs/pointIDs
	// for the duration of the call only — the middleware stack clones
	// what it retains).
	spare    []*lockstepQuery
	sets     []*lockstepQuery
	points   []*lockstepQuery
	setReqs  []SetRequest
	pointIDs []dataset.ObjectID
}

// newLockstep builds a scheduler for n tasks committing rounds through
// bo under ctx.
func newLockstep(ctx context.Context, bo BatchOracle, n int) *lockstep {
	s := &lockstep{bo: bo, ctx: ctx, live: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// submit parks one query and blocks until its round commits. After an
// abort the query fails immediately without reaching the oracle.
func (s *lockstep) submit(q *lockstepQuery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		q.err, q.done = s.err, true
		return
	}
	s.parked = append(s.parked, q)
	s.maybeCommit()
	for !q.done {
		s.cond.Wait()
	}
}

// finish retires one task; a non-nil error aborts the remaining tasks
// (their next submit fails instead of posting more HITs a doomed audit
// would pay for). Callers hold no lock.
func (s *lockstep) finish(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live--
	if err != nil && s.err == nil {
		s.err = err
	}
	s.maybeCommit()
}

// maybeCommit commits the round once every live task has parked.
// Callers hold s.mu; the parked tasks are all inside cond.Wait, so the
// oracle round runs without contention. A cancelled context aborts the
// round BEFORE it reaches the oracle: every round either commits in
// full (and is journaled, if a journal is in the stack) or never
// touches the crowd — the invariant that makes kill-at-round-K exactly
// resumable.
func (s *lockstep) maybeCommit() {
	if len(s.parked) == 0 || len(s.parked) < s.live {
		return
	}
	round := s.parked
	s.parked = s.spare[:0]
	orderCanonically(round)
	if s.err == nil {
		s.err = s.ctx.Err()
	}
	if s.err != nil {
		failQueries(round, s.err)
	} else {
		s.commit(round)
	}
	// Recycle the round's backing array: every query is done, so no
	// waiter holds a reference into it past the broadcast.
	s.spare = round[:0]
	s.cond.Broadcast()
}

// commit posts one canonical round: set queries first, point queries
// second, each kind as a single batch in canonical order. A batch
// error fails the failing queries uniformly — every parked task behind
// the failure sees the same error, so which error surfaces never
// depends on scheduling. A retry policy sits below the commit, inside
// the batch oracle, so a round fails only once a query has spent its
// attempts. A partial-prefix batch (a BudgetedOracle admitting only
// what the remaining budget affords) delivers the committed prefix's
// answers to their tasks and fails the rest of the round — the
// unadmitted sets AND every point query, which sit after the sets in
// canonical order — with the batch's error, so a budget exhausts at
// one deterministic point in the canonical query sequence and no task
// ever hangs on an unanswered round.
func (s *lockstep) commit(round []*lockstepQuery) {
	sets, points := s.sets[:0], s.points[:0]
	for _, q := range round {
		if q.point {
			points = append(points, q)
		} else {
			sets = append(sets, q)
		}
	}
	s.sets, s.points = sets, points
	if len(sets) > 0 {
		reqs := s.setReqs[:0]
		for _, q := range sets {
			reqs = append(reqs, q.req)
		}
		s.setReqs = reqs
		answers, err := s.bo.SetQueryBatch(reqs)
		for i := 0; i < len(answers) && i < len(sets); i++ {
			sets[i].ans, sets[i].done = answers[i], true
		}
		if err != nil {
			failQueries(sets[len(answers):], err)
			failQueries(points, err)
			return
		}
	}
	if len(points) > 0 {
		ids := s.pointIDs[:0]
		for _, q := range points {
			ids = append(ids, q.id)
		}
		s.pointIDs = ids
		labels, err := s.bo.PointQueryBatch(ids)
		for i := 0; i < len(labels) && i < len(points); i++ {
			points[i].labels, points[i].done = labels[i], true
		}
		if err != nil {
			failQueries(points[len(labels):], err)
			return
		}
	}
	for _, q := range round {
		q.done = true
	}
}

// failQueries delivers one error to a round's queries, or a subset.
func failQueries(queries []*lockstepQuery, err error) {
	for _, q := range queries {
		q.err, q.done = err, true
	}
}

// lockstepOracle is the per-task Oracle facade: each query parks in
// the scheduler and returns with its round's answer. One goroutine
// owns it, so the sequence counter needs no lock, and because a task
// has at most one query in flight (submit blocks until the round
// delivers), the parking slot q is reused across the task's queries
// instead of allocating one per HIT. The scheduler never retains a
// query past its round's broadcast, and the labels a point query
// returns are the batch oracle's own allocation, so slot reuse cannot
// alias an answer a caller holds.
type lockstepOracle struct {
	s    *lockstep
	task int
	seq  int
	q    lockstepQuery
}

// ask routes the parked slot through the scheduler.
func (o *lockstepOracle) ask() {
	o.q.task, o.q.seq = o.task, o.seq
	o.seq++
	o.s.submit(&o.q)
}

// SetQuery implements Oracle.
func (o *lockstepOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	o.q = lockstepQuery{req: SetRequest{IDs: ids, Group: g}}
	o.ask()
	return o.q.ans, o.q.err
}

// ReverseSetQuery implements Oracle.
func (o *lockstepOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	o.q = lockstepQuery{req: SetRequest{IDs: ids, Group: g, Reverse: true}}
	o.ask()
	return o.q.ans, o.q.err
}

// PointQuery implements Oracle.
func (o *lockstepOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	o.q = lockstepQuery{point: true, id: id}
	o.ask()
	return o.q.labels, o.q.err
}

// runLockstep runs fn(i) for every task in [0, n) in lockstep rounds:
// all n tasks are live at once (goroutines are cheap; the oracle round
// is the scarce resource), each audits through its own per-task Oracle
// facade, and rounds commit through AsBatchOracle(o, parallelism) in
// canonical order. Error surfacing follows task-index order, never
// finish order: a failed round delivers one error to every parked
// task, a task failing on its own aborts the rest before they post
// further queries, and the lowest-indexed task's error is returned —
// so which error surfaces does not depend on goroutine scheduling.
func runLockstep(ctx context.Context, o Oracle, parallelism, n int, fn func(i int, audit Oracle) error) error {
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := newLockstep(ctx, AsBatchOracle(o, normalizeParallelism(parallelism)), n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := fn(i, &lockstepOracle{s: s, task: i})
			errs[i] = err
			s.finish(err)
		}(i)
	}
	wg.Wait()
	return firstError(errs)
}

// runTasks runs fn for every task in [0, n): in lockstep rounds
// (runLockstep) when lockstep is set or parallelism > 1, otherwise one
// after another in index order through o itself, checking ctx before
// each task and stopping at the first error.
func runTasks(ctx context.Context, o Oracle, lockstep bool, parallelism, n int, fn func(i int, audit Oracle) error) error {
	if lockstep || parallelism > 1 {
		return runLockstep(ctx, o, parallelism, n, fn)
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(i, o); err != nil {
			return err
		}
	}
	return nil
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
