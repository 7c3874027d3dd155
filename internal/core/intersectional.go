package core

import (
	"errors"
	"sort"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// PatternVerdict is the final coverage decision for one pattern of the
// graph, with the count bounds that justify it.
type PatternVerdict struct {
	Pattern  pattern.Pattern
	Coverage pattern.Coverage
	Bounds   pattern.Bounds
	// Resolved marks verdicts that required an extra Group-Coverage
	// run because propagated bounds straddled tau.
	Resolved bool
}

// IntersectionalResult is the outcome of Intersectional-Coverage: a
// verdict for every pattern over the attributes, and the maximal
// uncovered patterns (MUPs) that summarize the uncovered region.
type IntersectionalResult struct {
	// Verdicts maps pattern.Key() to the decision.
	Verdicts map[string]PatternVerdict
	// MUPs are the maximal uncovered patterns with their best-known
	// counts (exact whenever Bounds.Lo == Bounds.Hi).
	MUPs []pattern.MUP
	// Multiple is the underlying leaf audit.
	Multiple *MultipleResult
	// Exhausted is true when a budget governor stopped the audit before
	// every pattern settled: undecidable patterns keep the Unknown
	// verdict with the bounds the committed answers prove, and the MUP
	// list covers only the patterns whose ancestry is fully decided.
	Exhausted bool
	// ResolutionTasks counts the extra tasks spent on patterns whose
	// propagated bounds straddled tau.
	ResolutionTasks int
	// Tasks is the total cost.
	Tasks int
}

// IntersectionalCoverage is Algorithm 3: coverage for every individual
// and intersectional group over several sensitive attributes. It
// reduces the problem to the fully-specified subgroups at the bottom
// of the pattern graph (audited by Multiple-Coverage with the
// same-parent aggregation rule), then combines counts upward in the
// style of Pattern-Combiner:
//
//   - a covered leaf makes every ancestor covered;
//   - uncovered leaves carry exact counts (individually audited) or an
//     exact joint count (super-group members), which propagate as
//     interval bounds on every ancestor's count.
//
// Where the propagated interval straddles tau — possible only for
// partial overlaps with an uncovered super-group — the algorithm
// resolves the pattern with one additional Group-Coverage run, so
// every verdict is definite. Those resolution re-audits are mutually
// independent, so with opts.Parallelism > 1 they run in lockstep
// rounds like the leaf audits; results settle in pattern-universe
// order, keeping verdicts, MUPs and task counts identical to the
// sequential engine for order-independent oracles.
func IntersectionalCoverage(o Oracle, ids []dataset.ObjectID, n, tau int, s *pattern.Schema, opts MultipleOptions) (*IntersectionalResult, error) {
	if s == nil {
		return nil, errors.New("core: nil schema")
	}
	opts.Multi = true
	groups := pattern.SubgroupGroups(s)
	mres, err := MultipleCoverage(o, ids, n, tau, groups, opts)
	if err != nil {
		return nil, err
	}

	leaves := make([]pattern.LeafBound, len(groups))
	superTotals := map[int]int{}
	for i, r := range mres.Results {
		switch {
		case r.Exact:
			leaves[i] = pattern.ExactLeaf(r.CountLo)
		case r.SuperIndex >= 0:
			leaves[i] = pattern.LeafBound{Lo: r.CountLo, Hi: r.CountHi, SuperID: r.SuperIndex}
			superTotals[r.SuperIndex] = mres.SuperAudits[r.SuperIndex].TotalCount
		default:
			// Covered and audited individually — or unsettled under an
			// exhausted budget: at least CountLo, at most the whole
			// universe.
			leaves[i] = pattern.LeafBound{Lo: r.CountLo, Hi: len(ids), SuperID: -1}
		}
	}
	bounds, err := pattern.PropagateBounds(s, leaves, superTotals)
	if err != nil {
		return nil, err
	}

	res := &IntersectionalResult{
		Verdicts: make(map[string]PatternVerdict, s.NumPatterns()),
		Multiple: mres,
	}
	// Resolution phase. Every pattern's verdict follows from the
	// propagated bounds alone (no oracle calls), so the straddling
	// patterns are known up front; their re-audits are independent of
	// one another.
	universe := pattern.Universe(s)
	type resolution struct {
		pattern pattern.Pattern
		labeled int
		walk    *groupWalk
	}
	var (
		unresolved []resolution
		walks      []*groupWalk
	)
	for _, p := range universe {
		b := bounds[p.Key()]
		v := PatternVerdict{Pattern: p, Coverage: b.Verdict(tau), Bounds: b}
		if v.Coverage == pattern.Unknown {
			g := pattern.Group{Name: p.Format(s), Members: []pattern.Pattern{p}}
			labeled := mres.Labeled.Count(g)
			w := newGroupWalk(mres.RemainingIDs, n, clampTau(tau-labeled), g, GroupCoverageOptions{})
			unresolved = append(unresolved, resolution{pattern: p, labeled: labeled, walk: w})
			walks = append(walks, w)
		}
		res.Verdicts[p.Key()] = v
	}
	// The re-audits share one retry wrapper, like the leaf audits, and
	// run as walks: together in lockstep rounds, or one after another
	// on the sequential engine, with pattern-universe order as the
	// canonical walk order.
	ctx := opts.context()
	eng := newEngine(ctx, withRetry(ctx, o, opts.Retry, opts.Rng, opts.Parallelism), opts.Lockstep, opts.Parallelism)
	if err := eng.run(walks...); err != nil {
		return nil, err
	}
	// Settle in universe order, so task accounting and verdicts are
	// identical to the sequential engine at every parallelism level.
	res.Exhausted = mres.Exhausted
	for _, r := range unresolved {
		v := res.Verdicts[r.pattern.Key()]
		audit := r.walk.res
		res.ResolutionTasks += audit.Tasks
		total := r.labeled + audit.Count
		switch {
		case audit.Exhausted:
			// The budget ran out mid-resolution: the pattern stays
			// Unknown, keeping only the committed lower bound.
			v.Bounds = pattern.Bounds{Lo: maxInt(total, v.Bounds.Lo), Hi: v.Bounds.Hi}
			res.Exhausted = true
		case audit.Covered:
			v.Coverage = pattern.Covered
			v.Bounds = pattern.Bounds{Lo: maxInt(total, v.Bounds.Lo), Hi: v.Bounds.Hi}
			v.Resolved = true
		default:
			v.Coverage = pattern.Uncovered
			v.Bounds = pattern.Bounds{Lo: total, Hi: total}
			v.Resolved = true
		}
		res.Verdicts[r.pattern.Key()] = v
	}

	// Extract MUPs: uncovered patterns all of whose parents are covered.
	for _, p := range universe {
		v := res.Verdicts[p.Key()]
		if v.Coverage != pattern.Uncovered {
			continue
		}
		maximal := true
		for _, par := range p.Parents() {
			if res.Verdicts[par.Key()].Coverage != pattern.Covered {
				maximal = false
				break
			}
		}
		if maximal {
			res.MUPs = append(res.MUPs, pattern.MUP{Pattern: p, Count: v.Bounds.Lo})
		}
	}
	sort.Slice(res.MUPs, func(i, j int) bool {
		if li, lj := res.MUPs[i].Pattern.Level(), res.MUPs[j].Pattern.Level(); li != lj {
			return li < lj
		}
		return res.MUPs[i].Pattern.Key() < res.MUPs[j].Pattern.Key()
	})

	res.Tasks = mres.Tasks + res.ResolutionTasks
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
