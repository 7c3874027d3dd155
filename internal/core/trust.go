package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the adversarial-robustness layer of the audit service:
// a TrustOracle middleware deterministically interleaves gold-standard
// probe HITs with the audit's own rounds, scores every worker's raw
// answers by a sequential likelihood ratio (probe mismatches plus
// consensus contradictions), and excludes distrusted workers from
// future assignment draws at round boundaries only — so round
// composition stays a pure function of committed answers and the whole
// stack keeps the cross-parallelism determinism contract. See the
// package comment ("Trust and adversarial workers").

// WorkerAnswer is one worker's raw (pre-aggregation) answer to one
// yes/no HIT, as an answer feed serves it: HIT is the platform's
// commit-order HIT index, Value is 0 (no) or 1 (yes).
type WorkerAnswer struct {
	HIT    int
	Worker int
	Value  int
}

// AnswerFeed serves delta reads of a platform's raw assignment stream
// in commit order; the crowd simulator's ResponseLog implements it.
// AnswersSince(n) returns the entries appended at index n and later;
// out-of-range n must clamp (never panic), so a cursor-driven consumer
// can always poll with its previous position.
type AnswerFeed interface {
	AnswersSince(n int) []WorkerAnswer
}

// WorkerScreener applies a trust verdict to a platform: the listed
// worker IDs are excluded from future assignment draws. Each call
// REPLACES the exclusion set; implementations may honor only the
// longest prefix that keeps the marketplace viable (the crowd
// simulator keeps at least one eligible worker) and return how many
// workers ended up excluded. The trust middleware calls this only
// between committed rounds.
type WorkerScreener interface {
	SetExcludedWorkers(ids []int) int
}

// GoldProbe is one gold-standard probe HIT: a set query whose true
// answer the auditor knows. The trust middleware appends probes to the
// audit's own rounds on a deterministic schedule and scores each
// worker's raw answer against Want.
type GoldProbe struct {
	Req  SetRequest
	Want bool
}

// GoldProbes derives k deterministic gold probes from ground truth:
// singleton set queries cycling over the groups, with objects drawn
// from a private RNG seeded by seed — so a probe battery is a pure
// function of (dataset, groups, k, seed) and identical across
// parallelism levels and resumed runs.
func GoldProbes(d *dataset.Dataset, groups []pattern.Group, k int, seed int64) []GoldProbe {
	if d == nil || d.Size() == 0 || len(groups) == 0 || k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	probes := make([]GoldProbe, 0, k)
	for i := 0; i < k; i++ {
		o := d.At(rng.Intn(d.Size()))
		g := groups[i%len(groups)]
		probes = append(probes, GoldProbe{
			Req:  SetRequest{IDs: []dataset.ObjectID{o.ID}, Group: g},
			Want: g.Matches(o.Labels),
		})
	}
	return probes
}

// TrustPolicy tunes the sequential-likelihood trust test. The zero
// value of any field is replaced by its DefaultTrustPolicy value, so
// callers may set only what they mean to change.
type TrustPolicy struct {
	// ProbeEvery schedules one gold probe after every ProbeEvery-th
	// committed set round (appended to that round's batch).
	ProbeEvery int
	// HonestErr and AdversaryErr are the per-answer error rates of the
	// two hypotheses the likelihood ratio separates; they must satisfy
	// 0 < HonestErr < AdversaryErr < 1.
	HonestErr    float64
	AdversaryErr float64
	// DistrustBelow is the log-likelihood score at which a worker is
	// distrusted (scores fall as evidence of adversarial answering
	// accumulates; the SPRT "reject honesty" boundary).
	DistrustBelow float64
	// ContradictionWeight discounts consensus-contradiction evidence
	// relative to gold-probe evidence (the consensus itself can be
	// wrong; a gold answer cannot).
	ContradictionWeight float64
	// MinObservations is the fewest scored answers before a worker can
	// be distrusted, bounding the false-exclusion rate on tiny samples.
	MinObservations int
}

// DefaultTrustPolicy probes every 4th set round and distrusts a worker
// once the likelihood ratio favors a 50%-error adversary over a
// 5%-error honest worker by e^3 (~3 gold-probe misses, or many more
// discounted consensus contradictions).
func DefaultTrustPolicy() TrustPolicy {
	return TrustPolicy{
		ProbeEvery:          4,
		HonestErr:           0.05,
		AdversaryErr:        0.5,
		DistrustBelow:       -3,
		ContradictionWeight: 0.25,
		MinObservations:     3,
	}
}

// normalized fills zero fields with the defaults and validates.
func (p TrustPolicy) normalized() (TrustPolicy, error) {
	d := DefaultTrustPolicy()
	if p.ProbeEvery == 0 {
		p.ProbeEvery = d.ProbeEvery
	}
	if p.HonestErr == 0 {
		p.HonestErr = d.HonestErr
	}
	if p.AdversaryErr == 0 {
		p.AdversaryErr = d.AdversaryErr
	}
	if p.DistrustBelow == 0 {
		p.DistrustBelow = d.DistrustBelow
	}
	if p.ContradictionWeight == 0 {
		p.ContradictionWeight = d.ContradictionWeight
	}
	if p.MinObservations == 0 {
		p.MinObservations = d.MinObservations
	}
	if p.ProbeEvery < 0 {
		return p, fmt.Errorf("core: trust probe interval %d", p.ProbeEvery)
	}
	if !(p.HonestErr > 0 && p.HonestErr < p.AdversaryErr && p.AdversaryErr < 1) {
		return p, fmt.Errorf("core: trust policy needs 0 < HonestErr < AdversaryErr < 1, got %v and %v",
			p.HonestErr, p.AdversaryErr)
	}
	if p.ContradictionWeight < 0 {
		return p, fmt.Errorf("core: trust contradiction weight %v", p.ContradictionWeight)
	}
	return p, nil
}

// Score is the worker's sequential log-likelihood-ratio trust score
// over the counted evidence: each correct gold-probe answer adds
// log((1-HonestErr)/(1-AdversaryErr)) > 0, each probe miss adds
// log(HonestErr/AdversaryErr) < 0, and consensus (dis)agreements
// contribute the same terms scaled by ContradictionWeight. Negative or
// inconsistent counts are clamped, so the function is total — Score is
// strictly decreasing in probeFails and in contradictions.
func (p TrustPolicy) Score(probes, probeFails, answers, contradictions int) float64 {
	if probes < 0 {
		probes = 0
	}
	if probeFails < 0 {
		probeFails = 0
	}
	if probeFails > probes {
		probeFails = probes
	}
	if answers < 0 {
		answers = 0
	}
	if contradictions < 0 {
		contradictions = 0
	}
	if contradictions > answers {
		contradictions = answers
	}
	match := math.Log((1 - p.HonestErr) / (1 - p.AdversaryErr))
	miss := math.Log(p.HonestErr / p.AdversaryErr)
	s := float64(probes-probeFails)*match + float64(probeFails)*miss
	s += p.ContradictionWeight * (float64(answers-contradictions)*match + float64(contradictions)*miss)
	return s
}

// Distrusts reports the policy's verdict for a score over observations
// scored answers (probes plus consensus-checked answers). Distrust is
// a one-way ratchet at the middleware level: once excluded, a worker
// stays excluded even if later evidence would raise the score.
func (p TrustPolicy) Distrusts(score float64, observations int) bool {
	return observations >= p.MinObservations && score < p.DistrustBelow
}

// TrustConfig assembles a TrustOracle: the policy, the gold-probe
// battery (cycled on the policy's schedule; empty disables probing),
// and the optional platform hooks — an answer feed to score raw worker
// answers and a screener to enforce exclusions. Feed and Screen may be
// nil: without a feed the middleware still issues probes (spend-audit
// mode); without a screener verdicts are reported but not enforced.
type TrustConfig struct {
	Policy TrustPolicy
	Probes []GoldProbe
	Feed   AnswerFeed
	Screen WorkerScreener
}

// TrustScore is one worker's evidence tally and verdict.
type TrustScore struct {
	Worker         int
	Score          float64
	Probes         int
	ProbeFails     int
	Answers        int
	Contradictions int
	Excluded       bool
}

// TrustReport is the middleware's observable state: per-worker scores
// sorted by worker ID, the probes issued, and how many workers are
// excluded from assignment draws.
type TrustReport struct {
	Workers      []TrustScore
	ProbesIssued int
	Excluded     int
}

// workerTally accumulates one worker's evidence.
type workerTally struct {
	probes, probeFails, answers, contradictions int
}

// TrustOracle is the adversarial-robustness middleware (NewStack places
// it). It appends one gold probe to every ProbeEvery-th committed
// set round, consumes the answer feed's delta after each round to
// score every worker's raw answers — against the gold answer for probe
// HITs, against the round's aggregated consensus otherwise — and
// applies the policy's distrust verdicts to the screener at round
// boundaries only. The probe schedule is a pure function of the
// committed set-round count, so it is identical at every Parallelism
// under Lockstep, survives kill/resume (replayed rounds re-issue the
// identical probe-augmented requests), and never consults the feed —
// feed starvation degrades scoring, never determinism.
type TrustOracle struct {
	inner  BatchOracle
	policy TrustPolicy
	probes []GoldProbe
	feed   AnswerFeed
	screen WorkerScreener

	mu           sync.Mutex
	setRounds    int
	probeCursor  int
	feedCursor   int
	probesIssued int
	stats        map[int]*workerTally
	excluded     map[int]bool
}

// NewTrustOracle wraps inner with the trust middleware. The policy is
// normalized (zero fields take defaults) and validated.
func NewTrustOracle(inner Oracle, cfg TrustConfig) (*TrustOracle, error) {
	if inner == nil {
		return nil, errors.New("core: trust oracle needs an inner oracle")
	}
	pol, err := cfg.Policy.normalized()
	if err != nil {
		return nil, err
	}
	for i, pr := range cfg.Probes {
		if len(pr.Req.IDs) == 0 {
			return nil, fmt.Errorf("core: gold probe %d has no objects", i)
		}
	}
	return &TrustOracle{
		inner:    AsBatchOracle(inner, 1),
		policy:   pol,
		probes:   append([]GoldProbe(nil), cfg.Probes...),
		feed:     cfg.Feed,
		screen:   cfg.Screen,
		stats:    map[int]*workerTally{},
		excluded: map[int]bool{},
	}, nil
}

// Policy returns the normalized policy in effect.
func (t *TrustOracle) Policy() TrustPolicy { return t.policy }

// Report snapshots the middleware's state: every scored worker (sorted
// by ID), probes issued, and the distrusted-worker count.
func (t *TrustOracle) Report() TrustReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := TrustReport{ProbesIssued: t.probesIssued, Excluded: len(t.excluded)}
	ids := make([]int, 0, len(t.stats))
	for id := range t.stats {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := t.stats[id]
		rep.Workers = append(rep.Workers, TrustScore{
			Worker:         id,
			Score:          t.policy.Score(w.probes, w.probeFails, w.answers, w.contradictions),
			Probes:         w.probes,
			ProbeFails:     w.probeFails,
			Answers:        w.answers,
			Contradictions: w.contradictions,
			Excluded:       t.excluded[id],
		})
	}
	return rep
}

// SetQueryBatch implements BatchOracle: the probe schedule decides
// whether this committed set round carries an appended gold probe, the
// combined round is forwarded to the inner stack (so a journal below
// records — and replays — the probe-augmented round), the feed delta
// is scored, and screening verdicts apply before the answers return —
// i.e. at the round boundary. A probe-only failure (the budget
// admitting exactly the caller's prefix and refusing the appended
// probe) is swallowed: the audit's own requests all committed, so the
// audit sees a clean round while the governor's exhaustion still
// surfaces on the next one.
func (t *TrustOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setRounds++
	var probe *GoldProbe
	combined := reqs
	if len(t.probes) > 0 && t.setRounds%t.policy.ProbeEvery == 0 {
		pr := t.probes[t.probeCursor%len(t.probes)]
		t.probeCursor++
		t.probesIssued++
		probe = &pr
		combined = make([]SetRequest, 0, len(reqs)+1)
		combined = append(combined, reqs...)
		combined = append(combined, pr.Req)
	}
	answers, err := t.inner.SetQueryBatch(combined)
	t.observe(reqs, answers, probe)
	t.applyScreening()
	if probe == nil {
		return answers, err
	}
	if len(answers) > len(reqs) {
		answers = answers[:len(reqs)]
	}
	if err != nil && len(answers) == len(reqs) &&
		(errors.Is(err, ErrBudgetExhausted) || errors.Is(err, ErrTransient)) {
		err = nil
	}
	return answers, err
}

// PointQueryBatch implements BatchOracle by pass-through: point rounds
// carry no probes, produce no feed entries, and do not advance the
// probe schedule.
func (t *TrustOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner.PointQueryBatch(ids)
}

// SetQuery implements Oracle as a one-element round, so a single
// query stays on the probe schedule too.
func (t *TrustOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(t, ids, g, false)
}

// ReverseSetQuery implements Oracle; see SetQuery.
func (t *TrustOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(t, ids, g, true)
}

// PointQuery implements Oracle by pass-through; see PointQueryBatch.
func (t *TrustOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	return pointOne(t, id)
}

// observe consumes the feed delta for one committed set round: the
// round committed len(answers) HITs in request order, so the delta's
// next len(answers) HIT groups are exactly this round's raw worker
// answers. Probe HITs score against the gold answer, audit HITs
// against the round's aggregated consensus. A short or empty delta
// (no feed installed, or a resumed run replaying rounds an earlier
// process already consumed from a since-rebuilt platform) scores what
// is there and moves on — determinism never depends on the feed.
// Callers hold t.mu.
func (t *TrustOracle) observe(reqs []SetRequest, answers []bool, probe *GoldProbe) {
	if t.feed == nil || len(answers) == 0 {
		return
	}
	delta := t.feed.AnswersSince(t.feedCursor)
	consumed, hit := 0, 0
	for i := 0; i < len(delta) && hit < len(answers); {
		j := i
		for j < len(delta) && delta[j].HIT == delta[i].HIT {
			j++
		}
		want, isProbe := answers[hit], false
		if probe != nil && hit == len(reqs) {
			want, isProbe = probe.Want, true
		}
		for _, a := range delta[i:j] {
			w := t.stats[a.Worker]
			if w == nil {
				w = &workerTally{}
				t.stats[a.Worker] = w
			}
			wrong := (a.Value == 1) != want
			if isProbe {
				w.probes++
				if wrong {
					w.probeFails++
				}
			} else {
				w.answers++
				if wrong {
					w.contradictions++
				}
			}
		}
		consumed += j - i
		i = j
		hit++
	}
	t.feedCursor += consumed
}

// applyScreening ratchets newly distrusted workers into the exclusion
// set and pushes the full set to the screener, worst score first (ID
// breaks ties) — so a screener honoring only a viability-bounded
// prefix drops the most trusted of the distrusted last. Each worker's
// verdict depends only on their own tally, so the map iteration order
// cannot affect the outcome. Callers hold t.mu.
func (t *TrustOracle) applyScreening() {
	changed := false
	//lint:ordered each worker's verdict is a pure function of its own tally; the screener feed below iterates sorted ids
	for id, w := range t.stats {
		if t.excluded[id] {
			continue
		}
		score := t.policy.Score(w.probes, w.probeFails, w.answers, w.contradictions)
		if t.policy.Distrusts(score, w.probes+w.answers) {
			t.excluded[id] = true
			changed = true
		}
	}
	if t.screen == nil || !changed {
		return
	}
	ids := make([]int, 0, len(t.excluded))
	for id := range t.excluded {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		si, sj := t.scoreOf(ids[i]), t.scoreOf(ids[j])
		if si != sj {
			return si < sj
		}
		return ids[i] < ids[j]
	})
	t.screen.SetExcludedWorkers(ids)
}

// scoreOf returns a worker's current score. Callers hold t.mu.
func (t *TrustOracle) scoreOf(id int) float64 {
	w := t.stats[id]
	if w == nil {
		return 0
	}
	return t.policy.Score(w.probes, w.probeFails, w.answers, w.contradictions)
}
