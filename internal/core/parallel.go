package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the concurrent audit engine behind
// MultipleOptions.Parallelism: independent super-group audits — and
// the per-member re-audits of the covered-penalty branch — run in
// lockstep rounds (lockstep.go) and the sampling phase is issued as
// one batched oracle round. Results are assembled in super-group
// order, so the engine is bit-for-bit equivalent to the sequential
// Algorithm 2 at every parallelism level for order-independent
// oracles, and reproduces itself at every level for order-dependent
// ones.

// normalizeParallelism maps non-positive pool widths to 1, the one
// normalization rule every engine shares: "no parallelism requested"
// always means a single worker, never a hidden default width.
func normalizeParallelism(parallelism int) int {
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// RunBounded runs fn(i) for every index in [0, n) across at most
// parallelism goroutines and returns the lowest-indexed error. Once a
// task fails, tasks with HIGHER indices are no longer dispatched —
// every query costs crowd money, so a doomed audit must not keep
// posting HITs the sequential engine would never pay for — but tasks
// with lower indices still run: they might fail at a lower index, and
// running them is exactly what the sequential engine would have paid
// for anyway. When each task's failure is a function of its own index
// (not of shared call-order state), the surfaced error is therefore
// deterministic under any scheduling: the lowest failing index, the
// same error the sequential loop stops on. AsBatchOracle lifts plain
// oracles into batched rounds on it, and the experiment harness and
// the audit service reuse it to fan trials and jobs out across
// workers.
func RunBounded(parallelism, n int, fn func(i int) error) error {
	return firstError(runBounded(parallelism, n, fn))
}

// runBounded is RunBounded returning every task's error: tasks below
// the lowest failing index all ran and succeeded.
func runBounded(parallelism, n int, fn func(i int) error) []error {
	if n == 0 {
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	errs := make([]error, n)
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
		return errs
	}
	// minFailed is the lowest failing index observed so far; only
	// tasks above it are skipped.
	var minFailed atomic.Int64
	minFailed.Store(int64(n))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if int64(i) > minFailed.Load() {
					continue
				}
				if errs[i] = fn(i); errs[i] != nil {
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

// LabelSamplesBatch is the sampling phase of Algorithm 6 issued as one
// batched oracle round: the same objects LabelSamples would pick with
// the same RNG (both use chooseSamples) are labeled through a single
// PointQueryBatch call, so a crowd deployment posts all c*tau sampling
// HITs concurrently. The returned remaining ids, labeled set, and task
// count are identical to the sequential LabelSamples for
// order-independent oracles.
func LabelSamplesBatch(o BatchOracle, ids []dataset.ObjectID, k int, l *LabeledSet, rng *rand.Rand) (remaining []dataset.ObjectID, tasks int, err error) {
	if o == nil {
		return nil, 0, errNilOracleOrSet
	}
	batch, remaining, err := chooseSamples(ids, k, l, rng)
	if err != nil {
		return nil, 0, err
	}
	labels, err := o.PointQueryBatch(batch)
	// A partial-prefix batch (budget governor) committed — and paid —
	// the first len(labels) queries: fold them into L so the partial
	// result keeps every answered HIT, then surface the error.
	for i := 0; i < len(labels) && i < len(batch); i++ {
		l.Add(batch[i], labels[i])
	}
	if err != nil {
		return remaining, len(labels), err
	}
	return remaining, len(batch), nil
}

// multipleCoverageParallel is Algorithm 2 on the concurrent engine;
// MultipleCoverage dispatches here when opts.Parallelism > 1 or
// opts.Lockstep is set (inputs already validated, c is the resolved
// sample factor). The audit rounds run in lockstep (runLockstep).
func multipleCoverageParallel(o Oracle, ids []dataset.ObjectID, n, tau, c int, groups []pattern.Group, opts MultipleOptions) (*MultipleResult, error) {
	res := &MultipleResult{
		Results: make([]MultipleGroupResult, len(groups)),
		Labeled: NewLabeledSet(),
	}
	budget := c * tau
	if opts.NoSampling {
		budget = 0
	}
	ctx := opts.context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One retry wrapper, when enabled, serves the sampling batch and
	// every lockstep round: inside its round a transient failure retries
	// the failed query on its own, then posts the rest, and the round
	// fails only once one query has failed MaxAttempts times. Jitter is
	// drawn from the parent RNG, which no audit task touches.
	retried := withRetry(ctx, o, opts.Retry, opts.Rng, opts.Parallelism)

	// Sampling round: one batch of point queries.
	sampler := AsBatchOracle(retried, normalizeParallelism(opts.Parallelism))
	remaining, sampleTasks, err := LabelSamplesBatch(sampler, ids, budget, res.Labeled, opts.Rng)
	if err != nil {
		if errors.Is(err, ErrBudgetExhausted) {
			return settleSamplingExhausted(res, remaining, sampleTasks, groups, len(ids)), nil
		}
		return nil, err
	}
	res.RemainingIDs = remaining
	res.SampleTasks = sampleTasks

	plans := buildSuperPlans(res.Labeled, tau, groups, Aggregate(res.Labeled, len(ids), tau, groups, opts.Multi))

	// Round 1: every super-group union audit runs in lockstep rounds,
	// task index = super-group index.
	unionRes := make([]GroupResult, len(plans))
	err = runLockstep(ctx, retried, opts.Parallelism, len(plans), func(si int, audit Oracle) error {
		var e error
		unionRes[si], e = GroupCoverage(audit, remaining, n, plans[si].tauPrime, plans[si].union)
		return e
	})
	if err != nil {
		return nil, err
	}

	// Round 2: the covered-penalty re-audits — every member of every
	// covered multi-member super-group — also run as lockstep tasks;
	// the canonical task order is (super-group index, member index).
	type penaltyJob struct{ si, mi int }
	var jobs []penaltyJob
	for si, plan := range plans {
		if len(plan.members) > 1 && unionRes[si].Covered {
			for mi := range plan.members {
				jobs = append(jobs, penaltyJob{si, mi})
			}
		}
	}
	subRes := make([]GroupResult, len(jobs))
	err = runLockstep(ctx, retried, opts.Parallelism, len(jobs), func(j int, audit Oracle) error {
		job := jobs[j]
		g := groups[plans[job.si].members[job.mi]]
		var e error
		subRes[j], e = GroupCoverage(audit, remaining, n, clampTau(tau-res.Labeled.Count(g)), g)
		return e
	})
	if err != nil {
		return nil, err
	}

	// Settle in super-group order through the same function as the
	// sequential engine, so assembly is deterministic and identical.
	sub := 0
	for si, plan := range plans {
		var subs []GroupResult
		if len(plan.members) > 1 && unionRes[si].Covered {
			subs = subRes[sub : sub+len(plan.members)]
			sub += len(plan.members)
		}
		settleSuper(res, plan, unionRes[si], subs, groups, len(ids))
	}
	res.Tasks = res.SampleTasks + res.AuditTasks
	return res, nil
}
