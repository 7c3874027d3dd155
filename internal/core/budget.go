package core

import (
	"errors"
	"math"
	"sync"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the budget-governance subsystem: audits are
// fundamentally budget-bound — crowdsourcing cost is the paper's single
// performance metric — and a deployment serving real traffic must not
// overshoot a customer's spend cap. A Budget declares the caps, the
// BudgetedOracle middleware enforces them by admitting committed
// queries one at a time in canonical order, and every audit algorithm
// translates the resulting ErrBudgetExhausted into a deterministic
// partial result (Exhausted flags plus best-effort covered/uncovered
// bounds from the answers that did commit) instead of an error.
//
// Determinism: inside one batch the governor charges requests in
// request order and admits the affordable prefix, so on the lockstep
// engine — where round composition and commit order are
// Parallelism-free — the exhaustion point, the partial verdicts, the
// committed task counts and the platform ledger's spend are
// byte-identical at every Parallelism value.

// ErrBudgetExhausted is returned by a BudgetedOracle for every query it
// refuses to post. Audit algorithms catch it and return partial
// results; it never aborts a round midway without settling every query
// in it (the round loop delivers the committed prefix and fails the
// rest uniformly).
var ErrBudgetExhausted = errors.New("core: crowd budget exhausted")

// HITKind names the three crowd task types for budget accounting and
// pricing. It mirrors the crowd package's QueryKind without importing
// it (crowd depends on core, not the other way around).
type HITKind int

const (
	// HITPoint is a point query (label one object).
	HITPoint HITKind = iota
	// HITSet is a set query.
	HITSet
	// HITReverseSet is a reverse set query.
	HITReverseSet
)

// CostFunc prices one query for MaxSpend accounting: the full cost the
// requester commits to by posting the HIT (assignments x price plus
// platform fee, under the deployment's pricing model). crowd.HITCost
// derives one from a platform configuration.
type CostFunc func(kind HITKind, setSize int) float64

// Budget caps the crowd tasks an audit may commit. The zero value is
// unlimited; any positive cap activates governance. Budgets count
// committed queries — HITs actually posted to the oracle — so
// speculative answers a deterministic early stop later discards are
// still charged (they were paid), while queries the governor refuses
// cost nothing.
type Budget struct {
	// MaxHITs caps the total number of committed queries; 0 disables.
	MaxHITs int
	// MaxPoint, MaxSet and MaxReverseSet optionally cap one HIT kind
	// each; 0 disables the kind's cap.
	MaxPoint, MaxSet, MaxReverseSet int
	// MaxSpend caps the accumulated cost under Cost; 0 disables.
	MaxSpend float64
	// Cost prices a query for MaxSpend accounting. Nil charges one unit
	// per HIT, making MaxSpend a float alias of MaxHITs.
	Cost CostFunc
}

// Active reports whether any cap is set.
func (b Budget) Active() bool {
	return b.MaxHITs > 0 || b.MaxPoint > 0 || b.MaxSet > 0 || b.MaxReverseSet > 0 || b.MaxSpend > 0
}

// cost resolves the configured cost model.
func (b Budget) cost(kind HITKind, setSize int) float64 {
	if b.Cost == nil {
		return 1
	}
	return b.Cost(kind, setSize)
}

// BudgetSpent is a snapshot of a governor's committed consumption.
type BudgetSpent struct {
	// Point, Set and ReverseSet count the committed queries per kind.
	Point, Set, ReverseSet int
	// Spend is the accumulated cost under the budget's cost model.
	Spend float64
	// Denied counts the queries the governor refused.
	Denied int
}

// HITs returns the total committed queries.
func (s BudgetSpent) HITs() int { return s.Point + s.Set + s.ReverseSet }

// BudgetedOracle enforces a Budget in front of another oracle: every
// query is charged before it is forwarded, and a query the remaining
// budget cannot afford fails with ErrBudgetExhausted without reaching
// the crowd. It implements BatchOracle natively — a batch charges its
// requests in request order and forwards only the affordable prefix,
// returning the prefix's answers together with ErrBudgetExhausted for
// the remainder (the one middleware that exercises the partial-batch
// clause of the BatchOracle contract). On the lockstep engine that
// makes the exhaustion point a pure function of the committed query
// sequence, byte-identical at every Parallelism value.
//
// NewStack places it directly over the platform so it charges real
// HITs. Safe for concurrent use when the inner oracle is.
type BudgetedOracle struct {
	inner  BatchOracle
	budget Budget

	mu    sync.Mutex
	spent BudgetSpent
}

// normalizeBudget clamps negative caps to zero (the cap's "disabled"
// value), mirroring normalizeParallelism's uniform rule: callers
// computing caps as remaining - spent can go negative, and a negative
// cap must read as "nothing left to govern with", never as a hidden
// unlimited budget (Active treats negatives as unset, so without the
// clamp a Budget{MaxHITs: -1} would audit ungoverned).
func normalizeBudget(b Budget) Budget {
	if b.MaxHITs < 0 {
		b.MaxHITs = 0
	}
	if b.MaxPoint < 0 {
		b.MaxPoint = 0
	}
	if b.MaxSet < 0 {
		b.MaxSet = 0
	}
	if b.MaxReverseSet < 0 {
		b.MaxReverseSet = 0
	}
	if b.MaxSpend < 0 {
		b.MaxSpend = 0
	}
	return b
}

// NewBudgetedOracle wraps inner with the budget governor. A zero
// (inactive) budget still counts spend but never refuses a query;
// negative caps normalize to zero (disabled).
func NewBudgetedOracle(inner Oracle, b Budget) *BudgetedOracle {
	return &BudgetedOracle{inner: AsBatchOracle(inner, 1), budget: normalizeBudget(b)}
}

// Budget returns the governor's configured caps.
func (g *BudgetedOracle) Budget() Budget { return g.budget }

// Spent returns a snapshot of the committed consumption.
func (g *BudgetedOracle) Spent() BudgetSpent {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spent
}

// Exhausted reports whether the governor has refused at least one
// query.
func (g *BudgetedOracle) Exhausted() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spent.Denied > 0
}

// restoreSpent resets the ledger to a journaled snapshot. The
// journaling middleware calls it per replayed round, so a resumed
// audit's governor charges nothing for rounds that were already paid
// and ends exactly where the interrupted run left it.
func (g *BudgetedOracle) restoreSpent(s BudgetSpent) {
	g.mu.Lock()
	g.spent = s
	g.mu.Unlock()
}

// kindCap returns the kind's tally pointer and its cap.
func (g *BudgetedOracle) kindCap(kind HITKind) (tally *int, limit int) {
	switch kind {
	case HITPoint:
		return &g.spent.Point, g.budget.MaxPoint
	case HITSet:
		return &g.spent.Set, g.budget.MaxSet
	default:
		return &g.spent.ReverseSet, g.budget.MaxReverseSet
	}
}

// admit charges one query if every cap allows it; callers hold g.mu.
func (g *BudgetedOracle) admit(kind HITKind, setSize int) bool {
	tally, limit := g.kindCap(kind)
	cost := g.budget.cost(kind, setSize)
	switch {
	case g.budget.MaxHITs > 0 && g.spent.HITs()+1 > g.budget.MaxHITs,
		limit > 0 && *tally+1 > limit,
		g.budget.MaxSpend > 0 && g.spent.Spend+cost > g.budget.MaxSpend+1e-9:
		g.spent.Denied++
		return false
	}
	*tally++
	g.spent.Spend += cost
	return true
}

// Headroom returns how many further queries of the given shape the
// remaining budget affords right now (math.MaxInt when unlimited). The
// batched round engines use it to narrow speculative rounds — e.g. a
// Label round posts min(tau-verified, headroom) point queries — so an
// approaching cap stops producing over-issue instead of wasted HITs.
// Enforcement never relies on it: admission is checked per query.
func (g *BudgetedOracle) Headroom(kind HITKind, setSize int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	room := math.MaxInt
	if g.budget.MaxHITs > 0 {
		room = minInt(room, g.budget.MaxHITs-g.spent.HITs())
	}
	if tally, limit := g.kindCap(kind); limit > 0 {
		room = minInt(room, limit-*tally)
	}
	if g.budget.MaxSpend > 0 {
		if cost := g.budget.cost(kind, setSize); cost > 0 {
			room = minInt(room, int((g.budget.MaxSpend-g.spent.Spend+1e-9)/cost))
		}
	}
	if room < 0 {
		return 0
	}
	return room
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SetQuery implements Oracle as a one-element round.
func (g *BudgetedOracle) SetQuery(ids []dataset.ObjectID, gr pattern.Group) (bool, error) {
	return setOne(g, ids, gr, false)
}

// ReverseSetQuery implements Oracle as a one-element round.
func (g *BudgetedOracle) ReverseSetQuery(ids []dataset.ObjectID, gr pattern.Group) (bool, error) {
	return setOne(g, ids, gr, true)
}

// PointQuery implements Oracle as a one-element round.
func (g *BudgetedOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return pointOne(g, id)
}

// admitSetPrefix charges a batch's requests in request order and
// returns the length of the affordable prefix.
func (g *BudgetedOracle) admitSetPrefix(reqs []SetRequest) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, req := range reqs {
		kind := HITSet
		if req.Reverse {
			kind = HITReverseSet
		}
		if !g.admit(kind, len(req.IDs)) {
			// Later requests are denied too: canonical order means the
			// round is charged front to back, nothing is skipped over.
			g.spent.Denied += len(reqs) - i - 1
			return i
		}
	}
	return len(reqs)
}

// SetQueryBatch implements BatchOracle with partial-prefix commits: the
// affordable prefix (charged in request order) is forwarded and
// answered; a shortfall returns those prefix answers alongside
// ErrBudgetExhausted for the rest.
func (g *BudgetedOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	k := g.admitSetPrefix(reqs)
	var answers []bool
	if k > 0 {
		var err error
		answers, err = g.inner.SetQueryBatch(reqs[:k])
		if err != nil {
			// The inner oracle may itself have committed a prefix (a
			// cache stacked below the governor): propagate those paid
			// answers with the error instead of discarding them.
			return answers, err
		}
	}
	if k < len(reqs) {
		return answers, ErrBudgetExhausted
	}
	return answers, nil
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (g *BudgetedOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	g.mu.Lock()
	k := 0
	for range ids {
		if !g.admit(HITPoint, 1) {
			g.spent.Denied += len(ids) - k - 1
			break
		}
		k++
	}
	g.mu.Unlock()
	var labels [][]int
	if k > 0 {
		var err error
		labels, err = g.inner.PointQueryBatch(ids[:k])
		if err != nil {
			// Propagate the inner oracle's committed prefix; see
			// SetQueryBatch.
			return labels, err
		}
	}
	if k < len(ids) {
		return labels, ErrBudgetExhausted
	}
	return labels, nil
}

// headroomOf returns gov.Headroom when a governor is present and
// "unlimited" otherwise, so engine narrowing reads as one expression.
func headroomOf(gov *BudgetedOracle, kind HITKind, setSize int) int {
	if gov == nil {
		return math.MaxInt
	}
	return gov.Headroom(kind, setSize)
}
