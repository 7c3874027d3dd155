package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// Strategy names the false-positive elimination strategy chosen by
// Classifier-Coverage (section 5).
type Strategy string

const (
	// StrategyPartition eliminates false positives with
	// divide-and-conquer reverse set queries; chosen when the
	// classifier looks precise on the sample.
	StrategyPartition Strategy = "partition"
	// StrategyLabel point-labels the predicted set; chosen when the
	// estimated false-positive rate is high and partitioning would
	// devolve into many tiny set queries.
	StrategyLabel Strategy = "label"
	// StrategyNone means the classifier predicted nothing, so the
	// audit fell back to plain Group-Coverage.
	StrategyNone Strategy = "none"
)

// ClassifierOptions tunes Classifier-Coverage.
type ClassifierOptions struct {
	// SampleFraction of the predicted-positive set is point-labeled to
	// estimate the classifier's precision. Zero means the paper's 10 %.
	SampleFraction float64
	// FPRateThreshold switches from partitioning to labeling when the
	// estimated false-positive rate reaches it. Zero means the paper's
	// 25 %.
	FPRateThreshold float64
	// Rng drives sampling; required.
	Rng *rand.Rand
	// Parallelism > 1 enables the batched round engine
	// (classifier_parallel.go): the precision sample posts as one
	// point-query round, the Label phase as bounded rounds with a
	// deterministic early stop, and the Partition phase as one
	// reverse-set round per tree level, each round committing to the
	// oracle through the lockstep scheduler (runLockstep) as one
	// canonical BatchOracle batch in issue order; Parallelism bounds
	// the pool that lifts non-batching oracles into those batches.
	// Zero or one keeps the sequential Algorithm 4/5 loops. Round
	// composition never depends on Parallelism — the engine is
	// level-synchronous by construction — so with a native BatchOracle
	// answering in request order (the crowd Platform, TruthOracle) the
	// full ClassifierResult is bit-identical at every Parallelism value
	// above 1, and equals the sequential engine's exactly for
	// order-independent oracles. The oracle must be safe for concurrent
	// use.
	Parallelism int
	// Lockstep runs the batched round engine at Parallelism <= 1 too;
	// it matters only there (see MultipleOptions.Lockstep).
	Lockstep bool
	// Retry re-posts transiently failing HITs (ErrTransient) instead
	// of aborting the audit. The whole audit shares one retry wrapper
	// (a classifier audit is a single task); jitter is drawn from Rng
	// under the wrapper's lock, on retries only, so a failure-free run
	// is unaffected.
	Retry RetryPolicy
	// Ctx cancels the audit at round boundaries (see
	// MultipleOptions.Ctx). Nil means context.Background().
	Ctx context.Context
}

// context resolves opts.Ctx, defaulting to context.Background().
func (o ClassifierOptions) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// ClassifierResult reports a classifier-assisted audit.
type ClassifierResult struct {
	Group   pattern.Group
	Covered bool
	// Count is the number of verified group members discovered (a
	// lower bound; exact when Exact is set).
	Count int
	Exact bool
	// Strategy actually used on the predicted set.
	Strategy Strategy
	// Exhausted is true when a budget governor stopped the audit before
	// it could decide coverage: Count is then the number of verified
	// members the committed answers prove (Covered stays true when that
	// bound already reaches tau).
	Exhausted bool
	// EstFPRate is the false-positive rate estimated on the sample.
	EstFPRate float64
	// Task breakdown: precision sample, predicted-set cleanup,
	// residual Group-Coverage over the rest of the data.
	SampleTasks, CleanupTasks, ResidualTasks int
	// Tasks is the total.
	Tasks int
}

// String implements fmt.Stringer.
func (r ClassifierResult) String() string {
	verdict := "uncovered"
	if r.Covered {
		verdict = "covered"
	}
	if r.Exhausted && !r.Covered {
		verdict = "undecided (budget exhausted)"
	}
	return fmt.Sprintf("%s: %s via %s (est. FP %.0f%%), count>=%d, %d tasks (sample=%d cleanup=%d residual=%d)",
		r.Group, verdict, r.Strategy, 100*r.EstFPRate, r.Count, r.Tasks, r.SampleTasks, r.CleanupTasks, r.ResidualTasks)
}

// ClassifierCoverage is Algorithm 4: it audits group g using the
// predicted-positive set G of a pre-trained classifier. A 10 % sample
// of G is point-labeled to estimate the classifier's precision on the
// positive group; false positives are then eliminated by partitioning
// (reverse set queries, precise classifiers) or exhaustive labeling
// (imprecise classifiers). If the verified positives already reach
// tau the audit stops; otherwise Group-Coverage hunts the remaining
// tau - c' false negatives in D - G.
func ClassifierCoverage(o Oracle, ids, predicted []dataset.ObjectID, n, tau int, g pattern.Group, opts ClassifierOptions) (ClassifierResult, error) {
	res := ClassifierResult{Group: g, Strategy: StrategyNone}
	if o == nil {
		return res, errors.New("core: nil oracle")
	}
	if opts.Rng == nil {
		return res, errors.New("core: ClassifierCoverage needs options.Rng")
	}
	if opts.SampleFraction == 0 {
		opts.SampleFraction = 0.10
	}
	if opts.FPRateThreshold == 0 {
		opts.FPRateThreshold = 0.25
	}
	if opts.SampleFraction < 0 || opts.SampleFraction > 1 || opts.FPRateThreshold < 0 || opts.FPRateThreshold > 1 {
		return res, fmt.Errorf("core: invalid options %+v", opts)
	}
	if n < 1 || tau < 0 {
		return res, fmt.Errorf("core: invalid parameters (n=%d tau=%d)", n, tau)
	}

	inIDs := make(map[dataset.ObjectID]bool, len(ids))
	for _, id := range ids {
		inIDs[id] = true
	}
	inPredicted := make(map[dataset.ObjectID]bool, len(predicted))
	for _, id := range predicted {
		if !inIDs[id] {
			return res, fmt.Errorf("core: predicted object %d not in dataset", id)
		}
		if inPredicted[id] {
			return res, fmt.Errorf("core: duplicate predicted object %d", id)
		}
		inPredicted[id] = true
	}

	// The stack's budget governor, wherever it sits, lies below the
	// retry layer: a retried HIT is a re-posted HIT and charges the
	// budget again, while an exhaustion refusal is not transient and
	// never retries. Transient-failure handling wraps once per audit (a
	// no-op when the policy is disabled); every phase of either engine
	// — and the residual hunt — retries through it.
	ctx := opts.context()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	gov := governorOf(o)
	o = withRetry(ctx, o, opts.Retry, opts.Rng)

	// Without predictions there is nothing to exploit.
	if len(predicted) == 0 {
		gc, err := GroupCoverage(o, ids, n, tau, g)
		if err != nil {
			return res, err
		}
		res.Covered = gc.Covered
		res.Count = gc.Count
		res.Exact = gc.Exact
		res.Exhausted = gc.Exhausted
		res.ResidualTasks = gc.Tasks
		res.Tasks = gc.Tasks
		return res, nil
	}

	if opts.Lockstep || opts.Parallelism > 1 {
		return classifierCoverageParallel(o, gov, ids, predicted, inPredicted, n, tau, g, opts, res)
	}

	// Line 2-3: estimate precision on a sample of G.
	sampleSize := sampleBudget(opts.SampleFraction, len(predicted))
	sampled := make(map[dataset.ObjectID]bool, sampleSize)
	truePos := 0
	for _, idx := range opts.Rng.Perm(len(predicted))[:sampleSize] {
		id := predicted[idx]
		labels, err := o.PointQuery(id)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				return classifierExhausted(res, truePos, tau), nil
			}
			return res, err
		}
		res.SampleTasks++
		sampled[id] = true
		if g.Matches(labels) {
			truePos++
		}
	}
	res.EstFPRate = 1 - float64(truePos)/float64(sampleSize)

	// Line 4-5: eliminate false positives.
	verified := 0
	var exactClean bool
	if res.EstFPRate < opts.FPRateThreshold {
		res.Strategy = StrategyPartition
		confirmed, drained, tasks, err := partitionClean(o, predicted, n, tau, g)
		res.CleanupTasks = tasks
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				return classifierExhausted(res, confirmed, tau), nil
			}
			return res, err
		}
		verified = confirmed
		exactClean = drained
	} else {
		res.Strategy = StrategyLabel
		// Algorithm 5 Label: point-label G, reusing the sample's
		// labels, stopping early at tau verified members.
		verified = truePos
		exactClean = true
		for _, id := range predicted {
			if verified >= tau {
				exactClean = false // stopped early: count is a bound
				break
			}
			if sampled[id] {
				continue
			}
			labels, err := o.PointQuery(id)
			if err != nil {
				if errors.Is(err, ErrBudgetExhausted) {
					return classifierExhausted(res, verified, tau), nil
				}
				return res, err
			}
			res.CleanupTasks++
			if g.Matches(labels) {
				verified++
			}
		}
	}

	return classifierFinish(o, ids, inPredicted, n, tau, verified, exactClean, g, res)
}

// classifierExhausted settles a classifier audit whose budget ran out:
// Count is the verified lower bound the committed answers prove, which
// still decides coverage when it already reaches tau.
func classifierExhausted(res ClassifierResult, verified, tau int) ClassifierResult {
	res.Exhausted = true
	res.Count = verified
	res.Covered = verified >= tau
	res.Tasks = res.SampleTasks + res.CleanupTasks + res.ResidualTasks
	return res
}

// sampleBudget sizes the precision sample: ceil(fraction * |G|),
// clamped into [1, |G|]. Both engines share it so their samples are
// identical.
func sampleBudget(fraction float64, predicted int) int {
	size := int(math.Ceil(fraction * float64(predicted)))
	if size < 1 {
		size = 1
	}
	if size > predicted {
		size = predicted
	}
	return size
}

// classifierFinish is lines 6-7 of Algorithm 4, shared by the
// sequential and the batched engine so their settle logic cannot drift
// apart: enough verified positives end the audit; otherwise
// Group-Coverage hunts the remaining tau - verified false negatives in
// D - G. The residual search is a single adaptive query chain (each
// set query depends on the previous answer), so both engines run it
// sequentially.
func classifierFinish(o Oracle, ids []dataset.ObjectID, inPredicted map[dataset.ObjectID]bool, n, tau, verified int, exactClean bool, g pattern.Group, res ClassifierResult) (ClassifierResult, error) {
	// Line 6: enough verified positives end the audit.
	if verified >= tau {
		res.Covered = true
		res.Count = verified
		res.Tasks = res.SampleTasks + res.CleanupTasks
		return res, nil
	}

	// Line 7: hunt false negatives in D - G.
	rest := make([]dataset.ObjectID, 0, len(ids)-len(inPredicted))
	for _, id := range ids {
		if !inPredicted[id] {
			rest = append(rest, id)
		}
	}
	gc, err := GroupCoverage(o, rest, n, tau-verified, g)
	if err != nil {
		return res, err
	}
	res.ResidualTasks = gc.Tasks
	res.Covered = gc.Covered
	res.Count = verified + gc.Count
	res.Exact = exactClean && gc.Exact && !gc.Covered
	res.Exhausted = gc.Exhausted
	res.Tasks = res.SampleTasks + res.CleanupTasks + res.ResidualTasks
	return res, nil
}

// partitionClean is the Partition function of Algorithm 5: it verifies
// the predicted-positive set with divide-and-conquer reverse set
// queries ("is anyone here NOT in g?"). A "no" confirms the whole
// subset as genuine members; a "yes" splits it, isolating false
// positives in singletons. A "no" on a left child implies — task-free —
// a "yes" on its right sibling. It stops early once stopAt members are
// confirmed, and reports whether it drained the whole set (making the
// confirmed count exact).
func partitionClean(o Oracle, predicted []dataset.ObjectID, n, stopAt int, g pattern.Group) (confirmed int, drained bool, tasks int, err error) {
	if len(predicted) == 0 {
		return 0, true, 0, nil
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
		t := q.pop()
		hasFP, err := o.ReverseSetQuery(predicted[t.b:t.e], g)
		if err != nil {
			return confirmed, false, tasks, err
		}
		tasks++

	process:
		if !hasFP {
			// The whole range is verified members of g.
			confirmed += t.size()
			if confirmed >= stopAt {
				return confirmed, false, tasks, nil
			}
			// Sibling inference, mirrored: our parent contains a false
			// positive and we contain none, so the right sibling must.
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
	return confirmed, true, tasks, nil
}
