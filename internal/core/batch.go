package core

import (
	"sync"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// SetRequest is one set or reverse-set query of a batch round: the
// HITs a deployment posts to the platform together, the way crowd
// marketplaces actually ingest work.
type SetRequest struct {
	// IDs are the objects shown to the worker.
	IDs []dataset.ObjectID
	// Group is the queried (possibly super-) group.
	Group pattern.Group
	// Reverse selects the reverse-set question ("at least one object
	// NOT in the group?") instead of the plain set question.
	Reverse bool
}

// BatchOracle extends Oracle with whole-round execution: a deployment
// posts all HITs of one round at once and collects the answers
// together. Implementations must answer positionally — answers[i]
// belongs to reqs[i] — and must return the error of the
// lowest-indexed failing request among those it executed. (A failing
// round may stop dispatching its remaining requests, so when several
// requests would fail concurrently, which error surfaces can depend
// on scheduling; successful rounds are always deterministic.)
//
// Partial-prefix commits: a failing batch may return a non-nil answer
// slice shorter than the request slice alongside its error, meaning
// requests [0, len(answers)) committed with those answers and the rest
// failed. Many implementations return nil answers on error (nothing
// committed); the BudgetedOracle governor uses the prefix form to hand
// back the answers the remaining budget could still afford, the
// adapter over a plain oracle and the crowd Platform return the
// requests answered before the lowest failing one, and the round loop
// delivers such a prefix to its walks instead of discarding paid
// answers.
//
// Callers own the request slices: an implementation reads reqs (and
// ids) during the call and keeps no reference to the slice afterwards.
// Copy what must outlive the call, as the journal's records do; the
// round loop and the one-element rounds of single queries reuse
// their round slices.
//
// Oracles whose answers depend only on the request (TruthOracle, any
// stateless crowd bridge) may execute a batch in any order or fully in
// parallel. Stateful simulators (the crowd platform, whose RNG
// advances per HIT) must process the batch in request order so that
// identically-seeded runs reproduce identical answers.
type BatchOracle interface {
	Oracle
	// SetQueryBatch answers one round of set / reverse-set queries.
	SetQueryBatch(reqs []SetRequest) ([]bool, error)
	// PointQueryBatch answers one round of point queries.
	PointQueryBatch(ids []dataset.ObjectID) ([][]int, error)
}

// batchAdapter lifts a plain Oracle into batched execution with a
// bounded worker pool. The inner oracle must be safe for concurrent
// use when the pool is wider than 1.
type batchAdapter struct {
	inner Oracle

	mu          sync.Mutex
	parallelism int
}

// NewBatchAdapter wraps an Oracle so whole rounds execute across a
// bounded pool of parallelism goroutines (minimum 1). The inner
// oracle must be safe for concurrent use when parallelism > 1; its
// answers should not depend on call order, or batched runs will not
// reproduce sequential ones.
func NewBatchAdapter(o Oracle, parallelism int) BatchOracle {
	return &batchAdapter{inner: o, parallelism: normalizeParallelism(parallelism)}
}

// AsBatchOracle returns o itself when it already implements
// BatchOracle natively, and otherwise lifts it with NewBatchAdapter.
// The middlewares (cache, trust, journal, governor, recorder, retry)
// lift their inner oracle once, before their first round; the only
// pool in a stack is the adapter at its bottom, over a base oracle
// that does not batch. Given such a stack, AsBatchOracle walks down to that
// adapter and widens it to parallelism (never narrowing), so the
// caller's width reaches the base through every layer.
func AsBatchOracle(o Oracle, parallelism int) BatchOracle {
	for l := below(o); l != nil; l = below(l) {
		if a, ok := l.(*batchAdapter); ok {
			a.widen(parallelism)
			break
		}
	}
	if bo, ok := o.(BatchOracle); ok {
		return bo
	}
	return NewBatchAdapter(o, parallelism)
}

// below returns the oracle a middleware layer forwards to, or nil when
// o is not a layer.
func below(o Oracle) Oracle {
	switch l := o.(type) {
	case *CachingOracle:
		return l.inner
	case *TrustOracle:
		return l.inner
	case *JournalingOracle:
		return l.inner
	case *BudgetedOracle:
		return l.inner
	case *RecordingOracle:
		return l.inner()
	case *retryOracle:
		return l.inner
	}
	return nil
}

// widen raises the pool width to parallelism.
func (a *batchAdapter) widen(parallelism int) {
	a.mu.Lock()
	a.parallelism = max(a.parallelism, parallelism)
	a.mu.Unlock()
}

// width returns the current pool width.
func (a *batchAdapter) width() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.parallelism
}

// One-element rounds for setOne and pointOne. A BatchOracle never
// keeps a round's request slice past the call (the round loop
// reuses its round slice the same way), so they are recycled.
var (
	setRounds   = sync.Pool{New: func() any { return new([1]SetRequest) }}
	pointRounds = sync.Pool{New: func() any { return new([1]dataset.ObjectID) }}
)

// setOne answers one set or reverse-set query as a one-element round
// of bo: every middleware answers single queries this way, so each
// layer's policy has exactly one implementation, its round path.
func setOne(bo BatchOracle, ids []dataset.ObjectID, g pattern.Group, reverse bool) (bool, error) {
	round := setRounds.Get().(*[1]SetRequest)
	round[0] = SetRequest{IDs: ids, Group: g, Reverse: reverse}
	answers, err := bo.SetQueryBatch(round[:])
	round[0] = SetRequest{}
	setRounds.Put(round)
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

// pointOne answers one point query as a one-element round of bo; see
// setOne.
func pointOne(bo BatchOracle, id dataset.ObjectID) ([]int, error) {
	round := pointRounds.Get().(*[1]dataset.ObjectID)
	round[0] = id
	labels, err := bo.PointQueryBatch(round[:])
	pointRounds.Put(round)
	if err != nil {
		return nil, err
	}
	return labels[0], nil
}

// SetQuery implements Oracle by delegation.
func (a *batchAdapter) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return a.inner.SetQuery(ids, g)
}

// ReverseSetQuery implements Oracle by delegation.
func (a *batchAdapter) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return a.inner.ReverseSetQuery(ids, g)
}

// PointQuery implements Oracle by delegation.
func (a *batchAdapter) PointQuery(id dataset.ObjectID) ([]int, error) {
	return a.inner.PointQuery(id)
}

// firstError returns the lowest-indexed non-nil error.
func firstError(errs []error) error {
	_, err := failedAt(errs)
	return err
}

// failedAt returns the lowest failing index and its error, or
// len(errs) and nil when nothing failed.
func failedAt(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return len(errs), nil
}

// SetQueryBatch implements BatchOracle. A failing round returns the
// answered prefix before its lowest failing request with that
// request's error.
func (a *batchAdapter) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	answers := make([]bool, len(reqs))
	k, err := failedAt(runBounded(a.width(), len(reqs), func(i int) error {
		var e error
		if reqs[i].Reverse {
			answers[i], e = a.inner.ReverseSetQuery(reqs[i].IDs, reqs[i].Group)
		} else {
			answers[i], e = a.inner.SetQuery(reqs[i].IDs, reqs[i].Group)
		}
		return e
	}))
	return answers[:k], err
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (a *batchAdapter) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	labels := make([][]int, len(ids))
	k, err := failedAt(runBounded(a.width(), len(ids), func(i int) error {
		var e error
		labels[i], e = a.inner.PointQuery(ids[i])
		return e
	}))
	return labels[:k], err
}
