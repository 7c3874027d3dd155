package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// RetryPolicy re-posts transiently failing HITs, the way a deployment
// handles expired or rejected assignments, instead of aborting a whole
// multi-group audit on one bad task. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per query; values <= 1
	// mean a single attempt (no retry).
	MaxAttempts int
	// Backoff scales the wait between attempts: before retry k the
	// engine sleeps Backoff * (0.5 + jitter) where jitter in [0, 1) is
	// drawn from the audit's RNG. Zero sleeps not at all (tests).
	Backoff time.Duration
}

// Enabled reports whether the policy actually retries.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// retryOracle wraps an oracle with the retry policy. One retryOracle
// serves a whole audit; its lock guards the jitter RNG, which is drawn
// on retries only and sets a sleep, never an answer.
//
// retryOracle is itself a BatchOracle: over a natively batching inner
// oracle a transient failure re-posts only the unanswered suffix of
// the round and splices the answers onto the committed prefix — a
// prefix a budget governor already admitted and charged stays
// committed and is never re-posted, so a retried round never
// double-charges (and preserves the inner's request-order determinism,
// since the committed prefix plus re-posted suffix replays the same
// request sequence). Over a plain oracle each request retries
// individually across the propagated pool width.
type retryOracle struct {
	inner  Oracle
	policy RetryPolicy
	ctx    context.Context

	poolWidth

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// withRetry wraps o unless the policy is disabled. The context bounds
// the backoff waits: a cancelled ctx aborts a sleeping retry
// immediately with ctx.Err() instead of posting another attempt.
func withRetry(ctx context.Context, o Oracle, policy RetryPolicy, rng *rand.Rand) Oracle {
	if !policy.Enabled() {
		return o
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &retryOracle{inner: o, policy: policy, ctx: ctx, rng: rng}
}

// do runs fn up to MaxAttempts times, backing off with jitter between
// attempts, and keeps only transient failures retryable. The backoff
// selects on the context, so a cancelled job stops promptly instead of
// sleeping through its backoff and posting another attempt.
func (r *retryOracle) do(fn func() error) error {
	var err error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.mu.Lock()
			jitter := 0.5 + r.rng.Float64()
			r.mu.Unlock()
			if d := time.Duration(float64(r.policy.Backoff) * jitter); d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-r.ctx.Done():
					timer.Stop()
					return r.ctx.Err()
				case <-timer.C:
				}
			}
			if e := r.ctx.Err(); e != nil {
				return e
			}
		}
		if err = fn(); err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
	}
	return err
}

// SetQuery implements Oracle.
func (r *retryOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	var ans bool
	err := r.do(func() error {
		var e error
		ans, e = r.inner.SetQuery(ids, g)
		return e
	})
	return ans, err
}

// ReverseSetQuery implements Oracle.
func (r *retryOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	var ans bool
	err := r.do(func() error {
		var e error
		ans, e = r.inner.ReverseSetQuery(ids, g)
		return e
	})
	return ans, err
}

// PointQuery implements Oracle.
func (r *retryOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	var labels []int
	err := r.do(func() error {
		var e error
		labels, e = r.inner.PointQuery(id)
		return e
	})
	return labels, err
}

// SetQueryBatch implements BatchOracle; see the type comment for the
// native-vs-lifted retry semantics. Each attempt re-posts only the
// suffix the previous attempts left unanswered: a partial prefix the
// inner batch committed (and a budget governor charged) splices into
// the accumulated answers instead of being posted — and paid — again.
func (r *retryOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	if bo, ok := r.inner.(BatchOracle); ok {
		var answers []bool
		err := r.do(func() error {
			part, e := bo.SetQueryBatch(reqs[len(answers):])
			if rest := len(reqs) - len(answers); len(part) > rest {
				part = part[:rest]
			}
			answers = append(answers, part...)
			if e == nil && len(answers) < len(reqs) {
				// A short answer slice without an error breaks the
				// BatchOracle contract; surface it rather than retry.
				return errShortBatch(len(answers), len(reqs))
			}
			return e
		})
		if err != nil && len(answers) == 0 {
			return nil, err
		}
		return answers, err
	}
	return NewBatchAdapter(r, r.width()).SetQueryBatch(reqs)
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (r *retryOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	if bo, ok := r.inner.(BatchOracle); ok {
		var labels [][]int
		err := r.do(func() error {
			part, e := bo.PointQueryBatch(ids[len(labels):])
			if rest := len(ids) - len(labels); len(part) > rest {
				part = part[:rest]
			}
			labels = append(labels, part...)
			if e == nil && len(labels) < len(ids) {
				return errShortBatch(len(labels), len(ids))
			}
			return e
		})
		if err != nil && len(labels) == 0 {
			return nil, err
		}
		return labels, err
	}
	return NewBatchAdapter(r, r.width()).PointQueryBatch(ids)
}

// errShortBatch reports a batch that returned fewer answers than
// requests without an error — a contract violation, not a transient
// failure, so do never retries it.
func errShortBatch(got, want int) error {
	return fmt.Errorf("core: batch returned %d of %d answers with nil error", got, want)
}
