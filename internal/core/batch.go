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
// failed. Most implementations return nil answers on error (nothing
// committed); the BudgetedOracle governor uses the prefix form to hand
// back the answers the remaining budget could still afford, and the
// lockstep commit path delivers such a prefix to its tasks instead of
// discarding paid answers.
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
// use when parallelism > 1.
type batchAdapter struct {
	inner       Oracle
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
// The middlewares (cache, trust, journal, governor, retry) additionally
// inherit the caller's parallelism for the rounds they forward
// themselves.
func AsBatchOracle(o Oracle, parallelism int) BatchOracle {
	if m, ok := o.(pooledMiddleware); ok {
		m.widen(parallelism)
		return m
	}
	if bo, ok := o.(BatchOracle); ok {
		return bo
	}
	return NewBatchAdapter(o, parallelism)
}

// pooledMiddleware is a middleware that lifts a non-batching inner
// oracle into its rounds with its own worker pool.
type pooledMiddleware interface {
	BatchOracle
	widen(parallelism int)
}

// poolWidth is a middleware's forwarding-pool width, embedded by every
// pooledMiddleware. AsBatchOracle widens it to the caller's width; it
// never narrows, and the zero value is width 1.
type poolWidth struct {
	mu sync.Mutex
	n  int
}

// widen raises the width to parallelism.
func (w *poolWidth) widen(parallelism int) {
	w.mu.Lock()
	w.n = max(w.n, parallelism)
	w.mu.Unlock()
}

// width returns the current width (at least 1).
func (w *poolWidth) width() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return max(w.n, 1)
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetQueryBatch implements BatchOracle.
func (a *batchAdapter) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	answers := make([]bool, len(reqs))
	err := RunBounded(a.parallelism, len(reqs), func(i int) error {
		var e error
		if reqs[i].Reverse {
			answers[i], e = a.inner.ReverseSetQuery(reqs[i].IDs, reqs[i].Group)
		} else {
			answers[i], e = a.inner.SetQuery(reqs[i].IDs, reqs[i].Group)
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}

// PointQueryBatch implements BatchOracle.
func (a *batchAdapter) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	labels := make([][]int, len(ids))
	err := RunBounded(a.parallelism, len(ids), func(i int) error {
		var e error
		labels[i], e = a.inner.PointQuery(ids[i])
		return e
	})
	if err != nil {
		return nil, err
	}
	return labels, nil
}
