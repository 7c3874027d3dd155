package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// chooseSamples is the selection step of labelSamples: it draws up to
// k random indices and splits the ids into the chosen sample and the
// remainder, both in input order. The draw never depends on the
// engine's mode, which keeps the sequential and lockstep sampling
// phases bit-for-bit interchangeable.
func chooseSamples(ids []dataset.ObjectID, k int, l *LabeledSet, rng *rand.Rand) (sample, remaining []dataset.ObjectID, err error) {
	if l == nil {
		return nil, nil, errors.New("core: nil labeled set")
	}
	if rng == nil {
		return nil, nil, errors.New("core: sampling needs a *rand.Rand")
	}
	if k < 0 {
		return nil, nil, fmt.Errorf("core: sample size %d", k)
	}
	if k > len(ids) {
		k = len(ids)
	}
	chosen := rng.Perm(len(ids))[:k]
	slices.Sort(chosen)
	buf := make([]dataset.ObjectID, len(ids)) // one array backs both
	sample, remaining = buf[:0:k], buf[k:k]
	for i, id := range ids {
		if len(chosen) > 0 && chosen[0] == i {
			sample = append(sample, id)
			chosen = chosen[1:]
		} else {
			remaining = append(remaining, id)
		}
	}
	return sample, remaining, nil
}

// labelSamples is the sampling phase of section 4 (Algorithm 6): it
// draws up to k random objects, labels them in one round of point
// queries through e, moves them into the labeled set L, and returns
// the remaining ids (order preserved). The paper uses k = c*tau with
// c = 2: enough point queries to confirm majority groups outright
// while estimating the frequencies of the minorities. A failed round
// (a budget governor admitting a prefix) keeps every committed, and
// paid, label in L; the chosen-but-unlabeled suffix stays outside both
// L and remaining, so callers translating a budget exhaustion into a
// partial result still get a valid (sample-free) remainder.
func labelSamples(e *engine, ids []dataset.ObjectID, k int, l *LabeledSet, rng *rand.Rand) (remaining []dataset.ObjectID, tasks int, err error) {
	sample, remaining, err := chooseSamples(ids, k, l, rng)
	if err != nil {
		return nil, 0, err
	}
	labels, err := e.points(sample)
	labels = labels[:min(len(labels), len(sample))]
	for i, lab := range labels {
		l.Add(sample[i], lab)
	}
	return remaining, len(labels), err
}

// ExpectedCount extrapolates |g| from the labeled sample:
// E[|g|] = N * L.count(g) / |L| (section 4). Zero when L is empty.
func ExpectedCount(l *LabeledSet, n int, g pattern.Group) float64 {
	if l.Len() == 0 {
		return 0
	}
	return float64(n) * float64(l.Count(g)) / float64(l.Len())
}

// Aggregate is the aggregate function of Algorithm 6: it sorts the
// groups by their sampled counts ascending — putting minorities next
// to each other — and greedily merges consecutive groups into a
// super-group while the sum of their expected counts stays below tau.
// The result partitions the input; each element lists the indices (in
// the input slice) of one super-group's members.
//
// When multi is true (the intersectional case), a group may join a
// super-group only if it shares a pattern-graph parent with every
// member already in it, i.e. all members are fully-specified sibling
// patterns differing in exactly one attribute. This restriction is
// what lets Intersectional-Coverage treat an uncovered super-group's
// joint count as exact at the shared parent.
func Aggregate(l *LabeledSet, n, tau int, groups []pattern.Group, multi bool) [][]int {
	type entry struct {
		idx      int
		count    int
		expected float64
	}
	entries := make([]entry, len(groups))
	for i, g := range groups {
		entries[i] = entry{idx: i, count: l.Count(g), expected: ExpectedCount(l, n, g)}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].count != entries[j].count {
			return entries[i].count < entries[j].count
		}
		return entries[i].idx < entries[j].idx
	})

	var out [][]int
	var cur []int
	sum := 0.0
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur = nil
			sum = 0
		}
	}
	for _, e := range entries {
		compatible := true
		if multi {
			for _, j := range cur {
				if !shareParent(groups[e.idx], groups[j]) {
					compatible = false
					break
				}
			}
		}
		if compatible && sum+e.expected < float64(tau) {
			cur = append(cur, e.idx)
			sum += e.expected
			continue
		}
		flush()
		cur = []int{e.idx}
		sum = e.expected
	}
	flush()
	return out
}

// shareParent reports whether two single-pattern, fully-specified
// groups are siblings in the pattern graph: they differ in exactly one
// attribute (and therefore share the parent that leaves it
// unspecified). Anything else never merges under the multi rule.
func shareParent(a, b pattern.Group) bool {
	if len(a.Members) != 1 || len(b.Members) != 1 {
		return false
	}
	p, q := a.Members[0], b.Members[0]
	if len(p) != len(q) || !p.FullySpecified() || !q.FullySpecified() {
		return false
	}
	diff := 0
	for i := range p {
		if p[i] != q[i] {
			diff++
		}
	}
	return diff == 1
}

// SuperAudit records the Group-Coverage run over one super-group.
type SuperAudit struct {
	// GroupIndices are the positions of the member groups in the
	// MultipleCoverage input.
	GroupIndices []int
	// Covered is the verdict for the union of the members.
	Covered bool
	// RemainingCount is the (exact, when uncovered) number of union
	// members found among the unlabeled objects.
	RemainingCount int
	// TotalCount adds the members found among the labeled samples.
	TotalCount int
	// Tasks issued by this super-group's audit, including any
	// per-member reruns after a covered verdict.
	Tasks int
}

// MultipleGroupResult is the per-group outcome of Multiple-Coverage.
type MultipleGroupResult struct {
	Group pattern.Group
	// Covered is the coverage verdict for the group.
	Covered bool
	// CountLo and CountHi bound |g| over the full audited universe.
	// Exact results have CountLo == CountHi.
	CountLo, CountHi int
	// Exact marks the count as exact.
	Exact bool
	// Settled is true when the audit reached a definite verdict for
	// this group. It is false only when a budget governor exhausted the
	// audit first (see Budget): Covered then defaults to false and
	// [CountLo, CountHi] are the best bounds the committed answers
	// prove.
	Settled bool
	// SuperIndex points into SuperAudits when the group's verdict
	// came from an uncovered super-group (so only the joint count is
	// exact); -1 when the group was audited individually.
	SuperIndex int
}

// MultipleResult is the outcome of Multiple-Coverage over all groups.
type MultipleResult struct {
	// Results aligns with the input group slice.
	Results []MultipleGroupResult
	// SuperAudits lists the super-group audits in execution order.
	SuperAudits []SuperAudit
	// Labeled is the point-query label cache L.
	Labeled *LabeledSet
	// RemainingIDs are the objects never moved into L.
	RemainingIDs []dataset.ObjectID
	// Exhausted is true when a budget governor stopped the audit
	// before every group settled; unsettled groups carry best-effort
	// bounds (Settled false). Task counts tally committed queries only.
	Exhausted bool
	// SampleTasks, AuditTasks and Tasks break down the cost.
	SampleTasks, AuditTasks, Tasks int
}

// MultipleOptions tunes Multiple-Coverage.
type MultipleOptions struct {
	// SampleFactor is the constant c of the sampling phase; the label
	// budget is c*tau point queries. Zero means the paper's default 2.
	SampleFactor int
	// NoSampling skips the sampling phase entirely (ablation): with an
	// empty labeled set, every group's expected count is zero and the
	// aggregation merges maximally.
	NoSampling bool
	// Multi applies the same-parent aggregation rule (intersectional).
	Multi bool
	// Rng drives sampling and the retry jitter; required.
	Rng *rand.Rand
	// Parallelism > 1 runs the lockstep engine (lockstep.go):
	// independent super-group audits (and the per-member re-audits of
	// the covered-penalty branch) run as walks whose queries commit in
	// canonical (super-group, member, query-sequence) order, one
	// BatchOracle round at a time. The schedule never depends on
	// Parallelism, which only bounds the pool that lifts non-batching
	// oracles into rounds, preserving the latency win of batched
	// rounds. Zero or one runs the sequential Algorithm 2 verbatim: one
	// walk at a time, one set query per round. On either schedule the
	// sampling phase is one point-query round and every round reaches
	// the oracle as one batch call. The oracle must be safe for
	// concurrent use when it does not batch natively.
	// With an oracle whose batches execute in request order (the crowd
	// Platform, TruthOracle, any native BatchOracle honoring the
	// contract) results are bit-for-bit identical at every Parallelism
	// value above 1 even when answers depend on query order;
	// order-independent oracles additionally reproduce the sequential
	// engine exactly.
	Parallelism int
	// Lockstep runs the lockstep rounds at Parallelism <= 1 too; it
	// matters only there. Callers whose resume or probe schedule rides
	// the committed round sequence (journal, trust, the audit service)
	// set it, so a journal replays at every width; the paper's
	// sequential query order, one query per round, is the default.
	Lockstep bool
	// Retry re-posts transiently failing HITs (ErrTransient) instead
	// of aborting the audit. One retry wrapper serves the whole audit,
	// below the lockstep commit, so a failed query is re-posted inside
	// its round; jitter is drawn from Rng on retries only, so a
	// failure-free run is unaffected.
	Retry RetryPolicy
	// Ctx cancels the audit at round boundaries: a cancelled context
	// fails the next oracle round before it reaches the crowd (checked
	// before every round the engine posts, in the journaling
	// middleware and in the retry backoff), so a killed job
	// never half-posts a round. Nil means context.Background().
	Ctx context.Context
}

// context resolves opts.Ctx, defaulting to context.Background().
func (o MultipleOptions) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// MultipleCoverage is Algorithm 2: coverage identification for several
// groups at once. It first labels c*tau random objects, forms
// super-groups of expected minorities by Algorithm 6, and audits each
// super-group with Group-Coverage. An uncovered super-group settles
// all its members at once (every member is uncovered); a covered one
// pays the penalty of re-auditing each member individually.
func MultipleCoverage(o Oracle, ids []dataset.ObjectID, n, tau int, groups []pattern.Group, opts MultipleOptions) (*MultipleResult, error) {
	if o == nil {
		return nil, errors.New("core: nil oracle")
	}
	if len(groups) == 0 {
		return nil, errors.New("core: no groups to audit")
	}
	if opts.Rng == nil {
		return nil, errors.New("core: MultipleCoverage needs options.Rng")
	}
	c := opts.SampleFactor
	if c == 0 {
		c = 2
	}
	if c < 0 || n < 1 || tau < 0 {
		return nil, fmt.Errorf("core: invalid parameters (c=%d n=%d tau=%d)", c, n, tau)
	}

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
	// One retry wrapper, when enabled, serves the sampling phase and
	// every round: inside its round a transient failure retries the
	// failed query on its own, then posts the rest, and the round fails
	// only once one query has failed MaxAttempts times. Jitter is drawn
	// from the parent RNG, which no walk touches.
	eng := newEngine(ctx, withRetry(ctx, o, opts.Retry, opts.Rng, opts.Parallelism), opts.Lockstep, opts.Parallelism)
	remaining, sampleTasks, err := labelSamples(eng, ids, budget, res.Labeled, opts.Rng)
	if err != nil {
		if errors.Is(err, ErrBudgetExhausted) {
			return settleSamplingExhausted(res, remaining, sampleTasks, groups, len(ids)), nil
		}
		return nil, err
	}
	res.RemainingIDs = remaining
	res.SampleTasks = sampleTasks

	// Every super-group gets a union walk; a covered multi-member one
	// then pays the penalty of re-auditing each member individually
	// (lines 8-12). Sequential mode runs each plan's union and then its
	// re-audits, plan by plan. Lockstep mode runs every union in one
	// set of rounds, then every re-audit, in canonical (super-group,
	// member) order. A walk translates budget exhaustion into an
	// Exhausted result, so once the governor refuses queries every
	// later walk ends exhausted at no further cost (or settles for free
	// when its residual threshold is already met), and settleSuper
	// marks the affected groups unsettled.
	plans := buildSuperPlans(res.Labeled, tau, groups, Aggregate(res.Labeled, len(ids), tau, groups, opts.Multi))
	unions := make([]*groupWalk, len(plans))
	for si, plan := range plans {
		unions[si] = newGroupWalk(remaining, n, plan.tauPrime, plan.union, GroupCoverageOptions{})
	}
	penalties := make([][]*groupWalk, len(plans))
	step := 1
	if !eng.serial {
		step = len(plans)
	}
	for lo := 0; lo < len(plans); lo += step {
		hi := min(lo+step, len(plans))
		if err := eng.run(unions[lo:hi]...); err != nil {
			return nil, err
		}
		var reaudits []*groupWalk
		for si := lo; si < hi; si++ {
			if len(plans[si].members) < 2 || !unions[si].res.Covered {
				continue
			}
			for _, gi := range plans[si].members {
				g := groups[gi]
				penalties[si] = append(penalties[si], newGroupWalk(remaining, n, clampTau(tau-res.Labeled.Count(g)), g, GroupCoverageOptions{}))
			}
			reaudits = append(reaudits, penalties[si]...)
		}
		if err := eng.run(reaudits...); err != nil {
			return nil, err
		}
	}
	for si, plan := range plans {
		subs := make([]GroupResult, len(penalties[si]))
		for i, w := range penalties[si] {
			subs[i] = w.res
		}
		settleSuper(res, plan, unions[si].res, subs, groups, len(ids))
	}
	res.Tasks = res.SampleTasks + res.AuditTasks
	return res, nil
}

// settleSamplingExhausted finishes a Multiple-Coverage run whose
// budget ran out during the sampling phase: no super-group was ever
// audited, so every group is unsettled with the bounds the committed
// sample labels prove.
func settleSamplingExhausted(res *MultipleResult, remaining []dataset.ObjectID, sampleTasks int, groups []pattern.Group, universe int) *MultipleResult {
	res.RemainingIDs = remaining
	res.SampleTasks = sampleTasks
	res.Tasks = sampleTasks
	res.Exhausted = true
	for i, g := range groups {
		res.Results[i] = unsettledResult(g, res.Labeled, universe)
	}
	return res
}

// unsettledResult is the best-effort outcome for a group whose audit a
// budget governor stopped: at least the labeled members exist, nothing
// above that is proven.
func unsettledResult(g pattern.Group, l *LabeledSet, universe int) MultipleGroupResult {
	return MultipleGroupResult{
		Group:      g,
		CountLo:    l.Count(g),
		CountHi:    universe,
		SuperIndex: -1,
	}
}

// superPlan precomputes one super-group audit: the member indices,
// their union group, the members already found among the labeled
// samples, and the residual threshold.
type superPlan struct {
	members    []int
	union      pattern.Group
	labeledSum int
	tauPrime   int
}

// buildSuperPlans turns the aggregation output into audit plans. The
// residual threshold clamps at zero: the samples may already satisfy
// tau, making the audit trivially covered at zero tasks.
func buildSuperPlans(l *LabeledSet, tau int, groups []pattern.Group, supers [][]int) []superPlan {
	plans := make([]superPlan, len(supers))
	for si, members := range supers {
		labeledSum := 0
		parts := make([]pattern.Group, len(members))
		for i, gi := range members {
			labeledSum += l.Count(groups[gi])
			parts[i] = groups[gi]
		}
		union := parts[0]
		if len(parts) > 1 {
			union = pattern.SuperGroup(parts...)
		}
		plans[si] = superPlan{
			members:    members,
			union:      union,
			labeledSum: labeledSum,
			tauPrime:   clampTau(tau - labeledSum),
		}
	}
	return plans
}

// settleSuper folds one finished super-group audit — the union verdict
// gc plus, in the covered-penalty case, the per-member re-audits subs
// (aligned with plan.members) — into the result.
func settleSuper(res *MultipleResult, plan superPlan, gc GroupResult, subs []GroupResult, groups []pattern.Group, universe int) {
	audit := SuperAudit{
		GroupIndices:   plan.members,
		Covered:        gc.Covered,
		RemainingCount: gc.Count,
		TotalCount:     plan.labeledSum + gc.Count,
		Tasks:          gc.Tasks,
	}
	switch {
	case len(plan.members) == 1:
		gi := plan.members[0]
		res.Results[gi] = singleResult(groups[gi], gc, res.Labeled, universe)
	case gc.Covered:
		for i, gi := range plan.members {
			audit.Tasks += subs[i].Tasks
			res.Results[gi] = singleResult(groups[gi], subs[i], res.Labeled, universe)
		}
	case gc.Exhausted:
		// The union audit stopped mid-way: a partial joint bound
		// settles no individual member.
		for _, gi := range plan.members {
			res.Results[gi] = unsettledResult(groups[gi], res.Labeled, universe)
		}
	default:
		// The union has fewer than tau members, so every member is
		// uncovered (line 13); only the joint count is exact.
		superIdx := len(res.SuperAudits)
		for _, gi := range plan.members {
			g := groups[gi]
			lo := res.Labeled.Count(g)
			res.Results[gi] = MultipleGroupResult{
				Group:      g,
				Covered:    false,
				CountLo:    lo,
				CountHi:    lo + gc.Count,
				Exact:      false,
				Settled:    true,
				SuperIndex: superIdx,
			}
		}
	}
	if gc.Exhausted {
		res.Exhausted = true
	}
	for _, sub := range subs {
		if sub.Exhausted {
			res.Exhausted = true
		}
	}
	res.SuperAudits = append(res.SuperAudits, audit)
	res.AuditTasks += audit.Tasks
}

// clampTau floors a residual threshold at zero: the samples already
// proved coverage when it goes negative.
func clampTau(tau int) int {
	if tau < 0 {
		return 0
	}
	return tau
}

// singleResult folds a Group-Coverage outcome over the remaining
// objects together with the labeled samples into a full-universe
// result for one group.
func singleResult(g pattern.Group, gc GroupResult, l *LabeledSet, universe int) MultipleGroupResult {
	lo := l.Count(g) + gc.Count
	out := MultipleGroupResult{
		Group:      g,
		Covered:    gc.Covered,
		CountLo:    lo,
		CountHi:    universe,
		Exact:      false,
		Settled:    !gc.Exhausted,
		SuperIndex: -1,
	}
	if !gc.Covered && gc.Exact {
		out.CountHi = lo
		out.Exact = true
	}
	return out
}
