package crowd

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/imagegen"
	"imagecvg/internal/pattern"
)

// Config tunes a simulated platform deployment.
type Config struct {
	// Assignments is the redundancy per HIT (the paper uses 3).
	Assignments int
	// PricePerHIT is the fixed price of one assignment; ignored when
	// Pricing is set.
	PricePerHIT float64
	// Pricing optionally replaces fixed pricing with another model
	// (SizePricing, PostedPricing, BiddingPricing, ...).
	Pricing Pricing
	// FeeRate is the platform's surcharge on worker payouts.
	FeeRate float64
	// SetSizeLimit bounds the number of images in one set query
	// (0 disables the check). The paper keeps sets at n=50 "to present
	// a reasonable workload".
	SetSizeLimit int
	// Aggregator infers truth from redundant answers; nil means
	// MajorityVote.
	Aggregator Aggregator
	// Qualification, when non-nil, is administered to each worker
	// before they may accept HITs.
	Qualification *QualificationTest
	// Rating, when non-nil, excludes workers below its thresholds.
	Rating *RatingFilter
	// Profile configures the worker pool.
	Profile PoolProfile
	// Adversary seeds a fraction of the pool with an adversarial
	// answer strategy (lazy, spamming, colluding); the zero value
	// changes nothing. Assignment is a deterministic RNG-free stripe
	// over worker IDs, so honest workers' random streams — and every
	// golden artifact of an adversary-free build — stay byte-identical.
	Adversary AdversaryConfig
	// Responses, when non-nil, records every yes/no assignment in
	// platform commit order — the sequencing hook for batch truth
	// inference (DawidSkene) and for conformance tests that compare
	// whole HIT transcripts across engine parallelism levels.
	Responses *ResponseLog
	// Seed drives all platform randomness.
	Seed int64
}

// DefaultConfig mirrors the paper's deployment: 3 assignments per HIT,
// $0.10 fixed price, 20 % platform fee, majority vote, a pool of 30
// typical workers.
func DefaultConfig(seed int64) Config {
	return Config{
		Assignments: 3,
		PricePerHIT: 0.10,
		FeeRate:     0.20,
		Aggregator:  MajorityVote{},
		Profile:     DefaultProfile(30),
		Seed:        seed,
	}
}

// Platform is the simulated crowdsourcing marketplace bound to one
// dataset. Workers look at each object through the clean glyph of its
// subgroup, rendered once per schema and found through the dataset's
// subgroup index; the platform routes HITs to randomly drawn eligible
// workers, aggregates their answers, and accounts every HIT in a
// ledger. It keeps no state per object, and a set HIT decides whether
// a perceived template answers the question once per template.
//
// Platform implements core.Oracle and, natively, core.BatchOracle. A
// mutex serializes all HITs (worker draws and perception noise share
// the platform RNG), so concurrent audit engines may call it safely —
// but interleaved calls consume the RNG in arrival order, which is
// nondeterministic under concurrency. Deployments that need
// reproducible parallel audits should post whole rounds through
// SetQueryBatch/PointQueryBatch: a batch holds the lock once and
// answers in request order, so identically-seeded runs reproduce the
// same answers at any parallelism level. The core engine's lockstep
// scheduler (core.MultipleOptions.Lockstep) does exactly that — it
// collects each virtual round's queries, orders them canonically, and
// commits them here as one batch — which makes even multi-group audits
// through this platform bit-identical at every Parallelism value.
type Platform struct {
	ds       *dataset.Dataset
	renderer *imagegen.Renderer
	cfg      Config
	pool     []*Worker
	eligible []*Worker
	// baseEligible freezes the post-quality-control pool in
	// construction order; SetExcludedWorkers rebuilds eligible from it,
	// so screening decisions compose instead of compounding.
	baseEligible []*Worker
	ledger       *Ledger

	mu  sync.Mutex // serializes HITs: rng, worker RNG state, ledger
	rng *rand.Rand

	// Scratch buffers reused by the hot query path, guarded by mu.
	// They never escape a query: anything handed to callers (aggregated
	// labels, batch answer slices) is freshly allocated, and the
	// in-query consumers (Group.Matches, Aggregator, ResponseLog) read
	// values without retaining the slices. permScratch reproduces
	// rand.Perm's exact draw sequence without its per-HIT allocation;
	// see draw. matchMemo caches, per perceived template, whether it
	// answers the current set HIT.
	permScratch     []int
	workerScratch   []*Worker
	answerScratch   []bool
	subgroupScratch []int
	pointScratch    [][]int
	matchMemo       []memo

	// divisors[n] draws rand.Intn(n) without a division, for every
	// eligible pool size n; see draw.
	divisors []divisor
}

// memo is one entry of a set HIT's per-template answer cache.
type memo uint8

const (
	memoUnknown memo = iota
	memoMatch
	memoNoMatch
)

// NewPlatform builds a platform over the dataset: renders the clean
// glyph of every subgroup of its schema, generates the worker pool and
// applies the configured quality controls. Construction and the
// platform's memory are independent of the dataset size.
func NewPlatform(ds *dataset.Dataset, cfg Config) (*Platform, error) {
	if ds == nil {
		return nil, errors.New("crowd: nil dataset")
	}
	if cfg.Assignments <= 0 {
		return nil, fmt.Errorf("crowd: assignments %d", cfg.Assignments)
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = MajorityVote{}
	}
	if cfg.Pricing == nil {
		cfg.Pricing = FixedPricing{Price: cfg.PricePerHIT}
	}
	renderer, err := imagegen.NewRenderer(ds.Schema())
	if err != nil {
		return nil, err
	}
	if cfg.Adversary.Rate < 0 || cfg.Adversary.Rate > 1 {
		return nil, fmt.Errorf("crowd: adversary rate %v", cfg.Adversary.Rate)
	}
	if cfg.Adversary.Rate > 0 && cfg.Adversary.Strategy == nil {
		return nil, fmt.Errorf("crowd: adversary rate %v without a strategy", cfg.Adversary.Rate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool, err := NewPool(cfg.Profile, rng)
	if err != nil {
		return nil, err
	}
	cfg.Adversary.assignAdversaries(pool)
	p := &Platform{
		ds:       ds,
		renderer: renderer,
		cfg:      cfg,
		pool:     pool,
		ledger:   NewLedger(cfg.FeeRate),
		rng:      rng,
	}
	for _, w := range pool {
		if cfg.Rating != nil && !cfg.Rating.Eligible(w) {
			continue
		}
		if cfg.Qualification != nil {
			pass, err := cfg.Qualification.Administer(w, renderer, rng)
			if err != nil {
				return nil, err
			}
			if !pass {
				continue
			}
		}
		p.eligible = append(p.eligible, w)
	}
	if len(p.eligible) == 0 {
		return nil, errors.New("crowd: no eligible workers after quality control")
	}
	p.baseEligible = p.eligible
	p.divisors = make([]divisor, len(p.baseEligible)+1)
	for n := 1; n < len(p.divisors); n++ {
		p.divisors[n] = newDivisor(n)
	}
	p.matchMemo = make([]memo, renderer.Schema().NumSubgroups())
	return p, nil
}

// SetExcludedWorkers replaces the platform's trust-screening exclusion
// set: the listed worker IDs no longer receive assignments, rebuilt
// from the post-quality-control pool each call (exclusions never
// compound across calls). The platform honors the longest prefix of
// ids that keeps at least one eligible worker — a marketplace cannot
// run with an empty pool — and returns how many workers ended up
// excluded. Callers (the trust middleware) must invoke this only at
// round boundaries: changing the pool mid-round would change worker
// draws for HITs already sequenced, breaking the determinism contract.
func (p *Platform) SetExcludedWorkers(ids []int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	banned := make(map[int]struct{}, len(ids))
	kept := len(p.baseEligible)
	for _, id := range ids {
		if _, dup := banned[id]; dup {
			continue
		}
		inBase := false
		for _, w := range p.baseEligible {
			if w.ID == id {
				inBase = true
				break
			}
		}
		if inBase {
			if kept == 1 {
				break
			}
			kept--
		}
		banned[id] = struct{}{}
	}
	eligible := make([]*Worker, 0, kept)
	for _, w := range p.baseEligible {
		if _, ok := banned[w.ID]; !ok {
			eligible = append(eligible, w)
		}
	}
	p.eligible = eligible
	return len(p.baseEligible) - len(eligible)
}

// WarmGlyphs does nothing: the platform renders one template per
// subgroup when it is built and nothing per object, so no rendering is
// left to move ahead of the first query. Callers may keep calling it.
func (p *Platform) WarmGlyphs() {}

// Ledger returns the platform's cost ledger.
func (p *Platform) Ledger() *Ledger { return p.ledger }

// EligibleWorkers returns how many workers survived quality control.
func (p *Platform) EligibleWorkers() int { return len(p.eligible) }

// PoolSize returns the total worker pool size.
func (p *Platform) PoolSize() int { return len(p.pool) }

// Workers returns the full worker pool, screened workers included —
// read-only introspection for trust tooling (e.g. checking which
// excluded workers were actually adversarial). Callers must not
// mutate the returned workers.
func (p *Platform) Workers() []*Worker { return p.pool }

// draw picks the redundancy set of workers for one HIT, without
// replacement when the eligible pool allows it. The returned slice is
// the platform's scratch buffer, valid until the next draw; callers
// hold p.mu and never retain it.
func (p *Platform) draw() []*Worker {
	k := p.cfg.Assignments
	if cap(p.workerScratch) < k {
		p.workerScratch = make([]*Worker, k)
	}
	out := p.workerScratch[:k]
	if k <= len(p.eligible) {
		n := len(p.eligible)
		if cap(p.permScratch) < n {
			p.permScratch = make([]int, n)
		}
		// rand.Perm's exact loop over a reused buffer: the same n Intn
		// draws in the same order, so transcripts are byte-identical to
		// the allocating version. m[i] is written at iteration i before
		// any later read, so stale scratch contents cannot leak in (the
		// j == i case reads m[i] but immediately overwrites it).
		m := p.permScratch[:n]
		for i := 0; i < n; i++ {
			j := intn(p.rng, p.divisors[i+1])
			m[i] = m[j]
			m[j] = i
		}
		for i := range out {
			out[i] = p.eligible[m[i]]
		}
		return out
	}
	d := p.divisors[len(p.eligible)]
	for i := range out {
		out[i] = p.eligible[intn(p.rng, d)]
	}
	return out
}

// subgroup returns the subgroup (template) index of an object. The
// dataset validated every object's labels when it was built, so an
// unknown ID is the only failure.
func (p *Platform) subgroup(id dataset.ObjectID) (int, error) {
	k, ok := p.ds.Subgroup(id)
	if !ok {
		return 0, fmt.Errorf("crowd: unknown object %d", id)
	}
	return k, nil
}

// subgroupsFor resolves a set query's objects to subgroup indices in
// the platform's scratch buffer, valid until the next query; callers
// hold p.mu.
func (p *Platform) subgroupsFor(ids []dataset.ObjectID) ([]int, error) {
	if len(ids) == 0 {
		return nil, errors.New("crowd: empty query set")
	}
	if p.cfg.SetSizeLimit > 0 && len(ids) > p.cfg.SetSizeLimit {
		return nil, fmt.Errorf("crowd: set query of %d images exceeds limit %d", len(ids), p.cfg.SetSizeLimit)
	}
	out := p.subgroupScratch[:0]
	for _, id := range ids {
		k, err := p.subgroup(id)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	p.subgroupScratch = out
	return out, nil
}

// SetQuery publishes the HIT "does this set contain at least one image
// of group g?" and returns the aggregated answer.
func (p *Platform) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.setQuery(ids, g, false)
}

// ReverseSetQuery publishes "does this set contain at least one image
// NOT in group g?" and returns the aggregated answer.
func (p *Platform) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.setQuery(ids, g, true)
}

// SetQueryBatch implements core.BatchOracle natively: the whole round
// is posted under one lock acquisition and answered in request order,
// so batched audits stay deterministic for a fixed seed regardless of
// the caller's parallelism.
func (p *Platform) SetQueryBatch(reqs []core.SetRequest) ([]bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	answers := make([]bool, len(reqs))
	for i, req := range reqs {
		ans, err := p.setQuery(req.IDs, req.Group, req.Reverse)
		if err != nil {
			return answers[:i], err
		}
		answers[i] = ans
	}
	return answers, nil
}

// PointQueryBatch implements core.BatchOracle; see SetQueryBatch.
func (p *Platform) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	labels := make([][]int, len(ids))
	for i, id := range ids {
		l, err := p.pointQuery(id)
		if err != nil {
			return labels[:i], err
		}
		labels[i] = l
	}
	return labels, nil
}

// Warm re-posts each journaled round's answered prefix to a fresh,
// identically-seeded platform and verifies the answers match the
// journal. The platform is a pure function of (seed, request
// sequence), so this reconstructs its state (worker RNG stream, cost
// ledger) exactly, and live rounds after a journal replay continue
// byte-identical to an uninterrupted run. A mismatch means the
// deployment no longer reproduces the journal (changed dataset, seed
// or configuration) and fails with core.ErrJournalMismatch rather than
// fabricating a diverged resume.
func (p *Platform) Warm(replay []core.RoundRecord) error {
	for _, rec := range replay {
		if rec.IsPointRound() {
			n := len(rec.PointAnswers)
			if n == 0 {
				continue
			}
			got, err := p.PointQueryBatch(rec.Points[:n])
			if err != nil {
				return fmt.Errorf("crowd: warm round %d: %w", rec.Round, err)
			}
			for i := range got {
				if !slices.Equal(got[i], rec.PointAnswers[i]) {
					return fmt.Errorf("%w: warmed platform diverged from journal at round %d point %d",
						core.ErrJournalMismatch, rec.Round, i)
				}
			}
			continue
		}
		n := len(rec.SetAnswers)
		if n == 0 {
			continue
		}
		got, err := p.SetQueryBatch(rec.Sets[:n])
		if err != nil {
			return fmt.Errorf("crowd: warm round %d: %w", rec.Round, err)
		}
		for i := range got {
			if got[i] != rec.SetAnswers[i] {
				return fmt.Errorf("%w: warmed platform diverged from journal at round %d set %d",
					core.ErrJournalMismatch, rec.Round, i)
			}
		}
	}
	return nil
}

// setQuery publishes one set/reverse-set HIT; callers hold p.mu.
func (p *Platform) setQuery(ids []dataset.ObjectID, g pattern.Group, reverse bool) (bool, error) {
	subgroups, err := p.subgroupsFor(ids)
	if err != nil {
		return false, err
	}
	workers := p.draw()
	if cap(p.answerScratch) < len(workers) {
		p.answerScratch = make([]bool, len(workers))
	}
	answers := p.answerScratch[:len(workers)]
	// Every worker still perceives each object it looks at, in order and
	// up to its first yes, so the RNG transcript is unchanged; only the
	// group test on the perceived template is shared across the HIT.
	memos := p.matchMemo
	clear(memos)
	for i, w := range workers {
		ans := false
		for _, k := range subgroups {
			seen := w.perceive(p.renderer, k)
			if memos[seen] == memoUnknown {
				memos[seen] = memoNoMatch
				if g.Matches(p.renderer.Labels(seen)) != reverse {
					memos[seen] = memoMatch
				}
			}
			if memos[seen] == memoMatch {
				ans = true
				break
			}
		}
		if w.slip() {
			ans = !ans
		}
		// The honest path above ran to completion (identical RNG
		// transcript); an adversarial strategy only overrides what the
		// worker submits.
		if w.strategy != nil {
			ans = w.strategy.AnswerBool(w, ans)
		}
		answers[i] = ans
	}
	kind := SetQuery
	if reverse {
		kind = ReverseSetQuery
	}
	if p.cfg.Responses != nil {
		p.cfg.Responses.record(workers, answers)
	}
	p.ledger.Record(kind, len(workers), p.cfg.Pricing.AssignmentPrice(kind, len(ids)))
	return p.cfg.Aggregator.AggregateBool(workers, answers), nil
}

// PointQuery publishes the HIT "what are the attribute values of this
// image?" and returns the aggregated label vector.
func (p *Platform) PointQuery(id dataset.ObjectID) ([]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pointQuery(id)
}

// pointQuery publishes one point HIT; callers hold p.mu. The
// aggregated result is freshly allocated (ownership passes to the
// caller); only the per-worker answer rows are platform scratch.
func (p *Platform) pointQuery(id dataset.ObjectID) ([]int, error) {
	k, err := p.subgroup(id)
	if err != nil {
		return nil, err
	}
	workers := p.draw()
	if cap(p.pointScratch) < len(workers) {
		p.pointScratch = make([][]int, len(workers))
	}
	answers := p.pointScratch[:len(workers)]
	for i, w := range workers {
		answers[i] = append(answers[i][:0], p.renderer.Labels(w.perceive(p.renderer, k))...)
		if w.slip() {
			corruptOneAttrInPlace(answers[i], p.ds.Schema(), w.rng)
		}
		if w.strategy != nil {
			w.strategy.AnswerLabels(w, p.ds.Schema(), answers[i])
		}
	}
	p.ledger.Record(PointQuery, len(workers), p.cfg.Pricing.AssignmentPrice(PointQuery, 1))
	return AggregateLabels(answers)
}
