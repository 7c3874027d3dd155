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
// Like every middleware it lifts its inner oracle once and forwards
// only rounds; single queries are one-element rounds. A transient
// failure keeps the round's answered prefix and retries the query that
// failed on its own, then posts the rest of the round: a prefix a
// budget governor already admitted and charged, or a recorder already
// wrote down, is never posted again, so a retried round never
// double-charges and replays the same request sequence as a
// failure-free one.
type retryOracle struct {
	inner  BatchOracle
	policy RetryPolicy
	ctx    context.Context

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// withRetry wraps o unless the policy is disabled; parallelism is the
// audit's width, which reaches the worker pool at the bottom of o. The
// context bounds the backoff waits: a cancelled ctx aborts a sleeping
// retry immediately with ctx.Err() instead of posting another attempt.
func withRetry(ctx context.Context, o Oracle, policy RetryPolicy, rng *rand.Rand, parallelism int) Oracle {
	if !policy.Enabled() {
		return o
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &retryOracle{inner: AsBatchOracle(o, parallelism), policy: policy, ctx: ctx, rng: rng}
}

// do runs attempt until it succeeds or fails for good, backing off
// with jitter between attempts. attempt reports how many requests of
// the round are answered so far; the first unanswered one is the query
// that failed. Attempts count per query, not per round: the round
// gives up only once one query has failed MaxAttempts times, so it
// ends after at most len(reqs)·MaxAttempts attempts. Only transient
// failures retry. The backoff selects on the context, so a cancelled
// job stops promptly instead of sleeping through its backoff and
// posting another attempt.
func (r *retryOracle) do(attempt func() (answered int, err error)) error {
	failed, tries := -1, 0
	for {
		answered, err := attempt()
		if err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
		if answered != failed {
			failed, tries = answered, 0
		}
		if tries++; tries >= r.policy.MaxAttempts {
			return err
		}
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
}

// retryRound answers one round through post, the inner oracle's batch
// method, and keeps every answered prefix. A retry posts the query
// that failed alone and, once it is answered, the rest of the round:
// the failed query is retried as a single HIT, the way a deployment
// re-posts one expired assignment, and the requests after it are not
// posted again with each of its tries.
func retryRound[Q, A any](r *retryOracle, reqs []Q, post func([]Q) ([]A, error)) ([]A, error) {
	var answers []A
	postNext := func(todo []Q) error {
		part, e := post(todo)
		answers = append(answers, part[:min(len(part), len(todo))]...)
		if e == nil && len(part) < len(todo) {
			// A short answer slice without an error breaks the
			// BatchOracle contract; surface it rather than retry.
			return errShortBatch(len(part), len(todo))
		}
		return e
	}
	retrying := false
	err := r.do(func() (int, error) {
		todo := reqs[len(answers):]
		if retrying && len(todo) > 1 {
			if e := postNext(todo[:1]); e != nil {
				return len(answers), e
			}
			todo = todo[1:]
		}
		retrying = true
		e := postNext(todo)
		return len(answers), e
	})
	if err != nil && len(answers) == 0 {
		return nil, err
	}
	return answers, err
}

// SetQueryBatch implements BatchOracle.
func (r *retryOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	return retryRound(r, reqs, r.inner.SetQueryBatch)
}

// PointQueryBatch implements BatchOracle.
func (r *retryOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	return retryRound(r, ids, r.inner.PointQueryBatch)
}

// SetQuery implements Oracle as a one-element round.
func (r *retryOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(r, ids, g, false)
}

// ReverseSetQuery implements Oracle as a one-element round.
func (r *retryOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(r, ids, g, true)
}

// PointQuery implements Oracle as a one-element round.
func (r *retryOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return pointOne(r, id)
}

// errShortBatch reports a batch that returned fewer answers than
// requests without an error — a contract violation, not a transient
// failure, so do never retries it.
func errShortBatch(got, want int) error {
	return fmt.Errorf("core: batch returned %d of %d answers with nil error", got, want)
}
