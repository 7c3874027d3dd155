package imagecvg

import (
	"context"
	"errors"
	"math/rand"

	"imagecvg/internal/classifier"
	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/experiment"
	"imagecvg/internal/pattern"
	"imagecvg/internal/server"
	"imagecvg/internal/stats"
)

// Re-exported substrate types. Aliases keep the public surface small
// while letting callers hold and construct the underlying values.
type (
	// Schema describes the categorical attributes of interest.
	Schema = pattern.Schema
	// Attribute is one categorical attribute (name plus value names).
	Attribute = pattern.Attribute
	// Pattern identifies a subgroup; Wildcard slots are unspecified.
	Pattern = pattern.Pattern
	// Group is a (possibly super-) demographic group.
	Group = pattern.Group
	// MUP is a maximal uncovered pattern.
	MUP = pattern.MUP
	// Coverage is the covered/uncovered/unknown verdict enum.
	Coverage = pattern.Coverage

	// Dataset is an ordered collection of objects with hidden labels.
	Dataset = dataset.Dataset
	// ObjectID names one object of a dataset.
	ObjectID = dataset.ObjectID
	// Preset is a named dataset composition from the paper.
	Preset = dataset.Preset

	// Oracle answers point, set and reverse-set queries. Implement it
	// to bridge the auditor to a real crowdsourcing platform.
	Oracle = core.Oracle
	// Budget caps the crowd tasks an audit may commit (max HITs,
	// per-kind caps, max spend under a CostFunc); see Auditor.WithBudget.
	Budget = core.Budget
	// BudgetSpent is a snapshot of committed budget consumption.
	BudgetSpent = core.BudgetSpent
	// CostFunc prices one committed query for Budget.MaxSpend
	// accounting; SimulatedCrowd.HITCost derives one from the
	// deployment's pricing model.
	CostFunc = core.CostFunc
	// HITKind names the three crowd task types for budget pricing.
	HITKind = core.HITKind
	// GroupResult reports one group audit.
	GroupResult = core.GroupResult
	// MultipleResult reports a Multiple-Coverage audit.
	MultipleResult = core.MultipleResult
	// IntersectionalResult reports MUP discovery.
	IntersectionalResult = core.IntersectionalResult
	// ClassifierResult reports a classifier-assisted audit.
	ClassifierResult = core.ClassifierResult

	// SimulatedClassifier realizes a published confusion matrix.
	SimulatedClassifier = classifier.Simulated
	// Confusion is a binary confusion matrix with derived metrics.
	Confusion = classifier.Confusion

	// Response is one worker's raw (pre-aggregation) answer to one
	// HIT, the unit of the truth-inference estimators.
	Response = crowd.Response
	// DSResult is the Dawid–Skene estimator's output: MAP truth,
	// posteriors, worker accuracies.
	DSResult = crowd.DSResult
	// IncrementalDS folds new responses into Dawid–Skene sufficient
	// statistics and re-runs EM warm-started from the previous
	// posteriors; see SimulatedCrowd.Responses for the input stream.
	IncrementalDS = crowd.IncrementalDS
	// ResponseLog records raw assignments in platform commit order and
	// serves delta reads to incremental consumers.
	ResponseLog = crowd.ResponseLog

	// Summary describes repeated observations (mean, stddev, 95% CI).
	Summary = stats.Summary

	// AuditService is the multi-tenant audit job engine behind cvgrun
	// -serve: persistent jobs with per-job crash-safe journals, a
	// bounded worker pool, tenant budget admission, and an HTTP API
	// (Handler) with SSE progress streams. See NewAuditService.
	AuditService = server.Engine
	// AuditServiceOptions configures an AuditService (data directory,
	// worker-pool width, per-tenant budget caps).
	AuditServiceOptions = server.Options
	// AuditJobConfig is one submitted audit job: mode, dataset spec,
	// audit parameters, oracle choice and budget caps.
	AuditJobConfig = server.JobConfig
	// AuditJobStatus is a job's point-in-time snapshot: state, round
	// progress, committed spend and (when finished) the result.
	AuditJobStatus = server.JobStatus
	// AuditJobResult is a finished job's serialized verdicts, task
	// tallies and ledger spend — byte-identical to the same
	// configuration run one-shot through Auditor.
	AuditJobResult = server.JobResult
	// AuditJobState is the job lifecycle enum.
	AuditJobState = server.JobState
	// AuditDatasetSpec names a job's dataset: a JSON file or a
	// generated binary-gender dataset.
	AuditDatasetSpec = server.DatasetSpec
)

// Audit-service job states (queued → running → done/failed/cancelled;
// interrupted jobs return to queued and resume on restart).
const (
	JobQueued    = server.StateQueued
	JobRunning   = server.StateRunning
	JobDone      = server.StateDone
	JobFailed    = server.StateFailed
	JobCancelled = server.StateCancelled
)

// Audit-service job modes.
const (
	JobModeMultiple       = server.ModeMultiple
	JobModeIntersectional = server.ModeIntersectional
	JobModeClassifier     = server.ModeClassifier
)

// Audit-service errors.
var (
	// ErrJobNotFound marks an unknown job id.
	ErrJobNotFound = server.ErrNotFound
	// ErrTenantBudget marks a submission the tenant's remaining budget
	// cannot admit.
	ErrTenantBudget = server.ErrTenantBudget
	// ErrServiceClosed marks a submission to a closed service.
	ErrServiceClosed = server.ErrClosed
)

// NewAuditService opens (or creates) the service's data directory,
// recovers every persisted job — resuming interrupted ones from their
// journals with byte-identical results — and starts the worker pool.
var NewAuditService = server.NewEngine

// Wildcard is the unspecified pattern slot, written X in the paper.
const Wildcard = pattern.Wildcard

// Coverage verdicts.
const (
	Covered   = pattern.Covered
	Uncovered = pattern.Uncovered
	Unknown   = pattern.Unknown
)

// HIT kinds for CostFunc implementations.
const (
	HITPoint      = core.HITPoint
	HITSet        = core.HITSet
	HITReverseSet = core.HITReverseSet
)

// ErrBudgetExhausted is the sentinel a budget governor returns for
// queries it refuses. The audit entry points translate it into partial
// results (Exhausted flags) rather than surfacing it, so callers only
// meet it when querying a governed oracle directly.
var ErrBudgetExhausted = core.ErrBudgetExhausted

// Re-exported constructors.
var (
	// NewSchema builds a validated schema.
	NewSchema = pattern.NewSchema
	// BinarySchema builds a single binary attribute schema.
	BinarySchema = pattern.Binary
	// NewPattern builds a validated pattern over a schema.
	NewPattern = pattern.NewPattern
	// ParsePattern reads the compact "X01" form.
	ParsePattern = pattern.Parse
	// GroupOf wraps a single pattern as a group.
	GroupOf = pattern.GroupOf
	// GroupsForAttribute lists one group per value of an attribute.
	GroupsForAttribute = pattern.GroupsForAttribute
	// SubgroupGroups lists one group per fully-specified subgroup.
	SubgroupGroups = pattern.SubgroupGroups

	// NewDataset builds a dataset from label vectors.
	NewDataset = dataset.New
	// LoadDataset reads a dataset JSON file.
	LoadDataset = dataset.LoadJSON
	// GenderSchema is the paper's default single-attribute schema.
	GenderSchema = dataset.GenderSchema
	// FemaleGroup / MaleGroup name the two gender groups.
	FemaleGroup = dataset.Female
	MaleGroup   = dataset.Male

	// NewTruthOracle answers from ground truth (the paper's synthetic
	// crowd simulation); useful for testing and benchmarking.
	NewTruthOracle = core.NewTruthOracle

	// DawidSkene runs batch EM truth inference over recorded
	// responses; NewIncrementalDS is its warm-starting online form.
	DawidSkene       = crowd.DawidSkene
	NewIncrementalDS = crowd.NewIncrementalDS

	// LowerBoundTasks, UpperBoundHITs and UpperBoundTasksLog2 are the
	// theoretical task bounds of section 3.2.
	LowerBoundTasks     = core.LowerBoundTasks
	UpperBoundHITs      = core.UpperBoundHITs
	UpperBoundTasksLog2 = core.UpperBoundTasksLog2

	// NewSimulatedClassifier derives a classifier from published
	// accuracy/precision statistics.
	NewSimulatedClassifier = classifier.NewSimulated
	// EvaluateClassifier measures a prediction's confusion matrix.
	EvaluateClassifier = classifier.Evaluate
)

// Paper dataset presets.
var (
	PresetFERETTable1 = dataset.FERETTable1
	PresetFERETUnique = dataset.FERETUnique
	PresetUTKFace200  = dataset.UTKFace200
	PresetUTKFace20   = dataset.UTKFace20
)

// GenerateBinary creates a shuffled gender dataset with exactly
// minority females among n objects, seeded deterministically.
func GenerateBinary(n, minority int, seed int64) (*Dataset, error) {
	return dataset.BinaryWithMinority(n, minority, rand.New(rand.NewSource(seed)))
}

// DatasetFromCounts creates a shuffled dataset with exactly counts[i]
// objects of the i-th fully-specified subgroup, seeded
// deterministically.
func DatasetFromCounts(s *Schema, counts []int, seed int64) (*Dataset, error) {
	return dataset.FromCounts(s, counts, rand.New(rand.NewSource(seed)))
}

// RunTrials repeats an observation across a bounded worker pool — the
// parallel trial-runner behind the repository's experiment harness,
// exposed for library callers benchmarking their own audits. Trial i
// receives a child RNG seeded deterministically with seed+i, so the
// summary (mean, stddev, 95% CI in trial order) is identical at every
// parallelism level; parallelism <= 1 runs the trials sequentially.
// Trials must take all randomness from their RNG and share only
// concurrency-safe state (e.g. one oracle behind a cache); the first
// failing trial aborts the run.
func RunTrials(trials, parallelism int, seed int64, trial func(i int, rng *rand.Rand) (float64, error)) (Summary, error) {
	res, err := experiment.Run(experiment.Config{
		Name:        "RunTrials",
		Seed:        seed,
		Trials:      trials,
		Parallelism: parallelism,
	}, func(t experiment.Trial) (float64, error) {
		return trial(t.Index, t.Rng)
	})
	if err != nil {
		return Summary{}, err
	}
	return res.Summarize(func(x float64) float64 { return x }), nil
}

// Auditor runs coverage audits with fixed parameters against an
// oracle. The zero value is not usable; construct with NewAuditor.
//
// The stack setters WithCache, WithBudget, WithJournal and WithTrust
// are order-free: in whatever order they are called, the auditor
// assembles the same middleware stack over its oracle — cache, trust,
// journal, governor, top to bottom (core.NewStack documents why). Each
// stack setter rebuilds the stack, so configure the auditor before its
// first audit: a later call starts a fresh stack (empty cache, zero
// governor spend), and the last call of each setter wins.
type Auditor struct {
	base        Oracle
	tau         int
	setSize     int
	seed        int64
	parallelism int
	lockstep    bool
	retry       core.RetryPolicy
	cfg         core.StackConfig
	stack       *core.Stack
}

// NewAuditor builds an auditor asking the oracle set queries of at
// most setSize objects and requiring tau objects for coverage.
func NewAuditor(o Oracle, tau, setSize int) *Auditor {
	return &Auditor{base: o, stack: &core.Stack{Top: o}, tau: tau, setSize: setSize, seed: 1}
}

// restack applies set to the stack configuration and rebuilds the
// stack over the base oracle; on error the auditor keeps its previous
// configuration and stack. Only an invalid trust config can fail, and
// WithTrust never commits one, so the other setters drop the error.
func (a *Auditor) restack(set func(*core.StackConfig)) error {
	cfg := a.cfg
	set(&cfg)
	st, err := core.NewStack(a.base, cfg)
	if err != nil {
		return err
	}
	a.cfg, a.stack = cfg, st
	return nil
}

// WithSeed fixes the seed of the auditor's internal sampling phases
// (Multiple-, Intersectional- and Classifier-Coverage).
func (a *Auditor) WithSeed(seed int64) *Auditor {
	a.seed = seed
	return a
}

// WithParallelism enables the concurrent audit engine: multi-group
// audits run independent super-group audits (and covered-penalty
// re-audits) as tasks advancing in deterministic lockstep rounds, each
// round's queries committing to the oracle as one batch in canonical
// (super-group, member, query-sequence) order; parallelism bounds the
// pool that lifts oracles without native batching into those rounds.
// Values <= 1 keep the sequential engine, which runs one audit at a
// time and posts each of its set queries as a one-query round. Either
// engine posts a sampling phase as one round, and every round reaches
// the oracle as one batch call. The oracle must be safe for concurrent
// use and should answer batches in request order (SimulatedCrowd and
// TruthOracle do; see core.BatchOracle): verdicts, task counts and
// spend are then bit-identical at every value above 1, even when the
// oracle's answers depend on query order (the simulated crowd), and
// with an order-independent oracle (TruthOracle, a stateless crowd
// bridge) they match the sequential engine exactly.
func (a *Auditor) WithParallelism(parallelism int) *Auditor {
	a.parallelism = parallelism
	return a
}

// WithLockstep runs the lockstep rounds of WithParallelism at
// parallelism <= 1 too; it matters only there. Use it when an
// order-dependent oracle (the simulated crowd) must give the same
// answers at width 1 as at every other width. WithJournal and
// WithTrust imply it.
func (a *Auditor) WithLockstep() *Auditor {
	a.lockstep = true
	return a
}

// WithCache installs a deduplicating query cache on top of the stack:
// identical HITs (canonicalized id-set plus group for set queries,
// object id for point queries) are paid for once across every
// subsequent audit through this auditor, and never charge the budget.
// Transient errors are never cached.
func (a *Auditor) WithCache() *Auditor {
	_ = a.restack(func(c *core.StackConfig) { c.Cache = true })
	return a
}

// WithRetry re-posts transiently failing HITs (core.ErrTransient) up
// to the policy's attempt budget instead of aborting multi-group
// audits.
func (a *Auditor) WithRetry(policy RetryPolicy) *Auditor {
	a.retry = policy
	return a
}

// WithBudget caps the committed crowd queries of ALL audits through
// this auditor with one shared budget governor — the deployment
// control for a customer's spend cap. An audit that hits the cap
// returns a deterministic partial result (result Exhausted flags,
// unsettled groups carrying best-effort bounds) instead of an error;
// on the lockstep engine the exhaustion point, partial verdicts, task
// counts and ledger spend are byte-identical at every WithParallelism
// value. Combine MaxSpend with SimulatedCrowd.HITCost (or your
// platform's CostFunc) to denominate the cap in ledger dollars.
func (a *Auditor) WithBudget(b Budget) *Auditor {
	_ = a.restack(func(c *core.StackConfig) { c.Budget = &b })
	return a
}

// WithJournal makes audits through this auditor crash-safe: every
// committed oracle round is appended to j (one RoundRecord per round —
// use CreateJournal for the fsynced file codec), and the replay
// records of a previous run, when non-nil, answer the first rounds of
// the next audit without touching the oracle — resuming a killed job
// with verdicts, task tallies and budget spend byte-identical to an
// uninterrupted run, and without re-posting (or re-paying) a single
// committed HIT. Replay verifies the resumed audit issues the exact
// journaled requests and fails with ErrJournalMismatch otherwise.
//
// WithJournal implies WithLockstep: only the deterministic round
// scheduler makes the round sequence a pure function of committed
// answers, which is what replay leans on.
func (a *Auditor) WithJournal(j RoundJournal, replay []RoundRecord) *Auditor {
	_ = a.restack(func(c *core.StackConfig) { c.Journal, c.Replay = j, replay })
	return a
}

// WithTrust installs the adversarial-robustness middleware:
// gold-standard probe HITs (TrustConfig.Probes, cycled on the policy's
// deterministic schedule) are appended to committed set rounds, every
// worker's raw answers from TrustConfig.Feed are scored by a
// sequential likelihood ratio against the gold answers and the round
// consensus, and workers the policy distrusts are pushed to
// TrustConfig.Screen — excluded from future assignment draws at round
// boundaries only. For the simulated crowd, wire Feed and Screen from
// SimulatedCrowd.AnswerFeed and SimulatedCrowd.Screener.
//
// WithTrust implies WithLockstep: the probe schedule rides the
// committed round sequence, which only the lockstep engine makes a
// pure function of committed answers — and with it, trust scores and
// screening decisions are byte-identical at every WithParallelism
// value. It returns an error for an invalid policy or probe battery
// and then leaves the auditor unchanged.
func (a *Auditor) WithTrust(cfg TrustConfig) (*Auditor, error) {
	return a, a.restack(func(c *core.StackConfig) { c.Trust = &cfg })
}

// TrustStats returns the trust middleware's report — per-worker
// scores, probes issued, workers excluded; ok is false when WithTrust
// was never enabled.
func (a *Auditor) TrustStats() (report TrustReport, ok bool) {
	if a.stack.Trust == nil {
		return TrustReport{}, false
	}
	return a.stack.Trust.Report(), true
}

// WithContext threads ctx through the round-based audits of this
// auditor (AuditGroups, AuditAttribute, AuditIntersectional,
// AuditWithClassifier and AuditGroupBatched): cancellation fails the
// next oracle round before it reaches the crowd (and aborts retry
// backoffs mid-sleep), so a cancelled job never half-posts a round —
// with WithJournal, every round either committed and was journaled, or
// never happened. AuditGroup, AuditBaseline, AuditGroupTraced and
// AuditSampled run on context.Background() and see ctx only through
// WithJournal's check before every round.
func (a *Auditor) WithContext(ctx context.Context) *Auditor {
	a.cfg.Ctx = ctx
	if a.stack.Journal != nil {
		a.stack.Journal.SetContext(ctx)
	}
	return a
}

// JournalStats reports the journaling middleware's progress: how many
// rounds of the current run were answered from the replay records and
// the total rounds committed. ok is false when WithJournal was never
// enabled.
func (a *Auditor) JournalStats() (replayed, rounds int, ok bool) {
	if a.stack.Journal == nil {
		return 0, 0, false
	}
	return a.stack.Journal.Replayed(), a.stack.Journal.Rounds(), true
}

// BudgetSpent returns the shared governor's committed consumption; ok
// is false when WithBudget was never enabled.
func (a *Auditor) BudgetSpent() (spent BudgetSpent, ok bool) {
	if a.stack.Governor == nil {
		return BudgetSpent{}, false
	}
	return a.stack.Governor.Spent(), true
}

// CacheStats returns the hit/miss tally of the query cache; ok is
// false when WithCache was never enabled.
func (a *Auditor) CacheStats() (stats CacheStats, ok bool) {
	if a.stack.Cache == nil {
		return CacheStats{}, false
	}
	return a.stack.Cache.Stats(), true
}

// multipleOptions assembles the engine options shared by the
// multi-group audit entry points.
func (a *Auditor) multipleOptions() core.MultipleOptions {
	return core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(a.seed)),
		Parallelism: a.parallelism,
		Lockstep:    a.lockstep || a.stack.Lockstep(),
		Retry:       a.retry,
		Ctx:         a.cfg.Ctx,
	}
}

// AuditGroup decides whether one group is covered (Algorithm 1).
func (a *Auditor) AuditGroup(ids []ObjectID, g Group) (GroupResult, error) {
	return core.GroupCoverage(a.stack.Top, ids, a.setSize, a.tau, g)
}

// AuditBaseline decides coverage with the naive point-query scan
// (Algorithm 7), for cost comparison.
func (a *Auditor) AuditBaseline(ids []ObjectID, g Group) (GroupResult, error) {
	return core.BaseCoverage(a.stack.Top, ids, a.tau, g)
}

// AuditGroups decides coverage for several groups with the
// super-group aggregation heuristic (Algorithm 2), on the concurrent
// engine when WithParallelism is set.
func (a *Auditor) AuditGroups(ids []ObjectID, groups []Group) (*MultipleResult, error) {
	return core.MultipleCoverage(a.stack.Top, ids, a.setSize, a.tau, groups, a.multipleOptions())
}

// AuditAttribute audits every value of one schema attribute.
func (a *Auditor) AuditAttribute(ids []ObjectID, s *Schema, attr int) (*MultipleResult, error) {
	if s == nil || attr < 0 || attr >= s.NumAttrs() {
		return nil, errors.New("imagecvg: invalid schema attribute")
	}
	return a.AuditGroups(ids, pattern.GroupsForAttribute(s, attr))
}

// AuditIntersectional discovers the maximal uncovered patterns over
// all attributes of the schema (Algorithm 3).
func (a *Auditor) AuditIntersectional(ids []ObjectID, s *Schema) (*IntersectionalResult, error) {
	return core.IntersectionalCoverage(a.stack.Top, ids, a.setSize, a.tau, s, a.multipleOptions())
}

// AuditWithClassifier audits one group using a pre-trained
// classifier's predicted-positive set (Algorithm 4). Every phase runs
// as rounds of HITs: the precision sample as one point-query round,
// the Label phase as bounded rounds with a deterministic early stop,
// and the Partition phase as clipped reverse-set rounds. With
// WithParallelism above 1 (or WithLockstep) each round commits as one
// batch in canonical order on the lockstep engine, making the full
// result bit-identical at every width even through the order-dependent
// simulated crowd. Otherwise Label and Partition rounds hold one query
// each, so the oracle sees the paper's sequential order; the precision
// sample is still one round. Both modes give the same results for
// order-independent oracles.
func (a *Auditor) AuditWithClassifier(ids, predicted []ObjectID, g Group) (ClassifierResult, error) {
	return core.ClassifierCoverage(a.stack.Top, ids, predicted, a.setSize, a.tau, g,
		core.ClassifierOptions{
			Rng:         rand.New(rand.NewSource(a.seed)),
			Parallelism: a.parallelism,
			Lockstep:    a.lockstep || a.stack.Lockstep(),
			Retry:       a.retry,
			Ctx:         a.cfg.Ctx,
		})
}

// SimulatedCrowd is an Oracle backed by the full crowdsourcing
// platform simulator: images rendered as glyphs, imperfect workers,
// redundant assignments, majority vote, and a cost ledger.
type SimulatedCrowd struct {
	platform *crowd.Platform
	log      *crowd.ResponseLog
}

// CrowdOptions tunes the simulated deployment; the zero value uses
// the paper's setup (3 assignments, $0.10/HIT, 20 % fee, 30 workers).
type CrowdOptions struct {
	// Assignments per HIT (default 3).
	Assignments int
	// PoolSize is the number of simulated workers (default 30).
	PoolSize int
	// Qualification enables a pre-task qualification test.
	Qualification bool
	// Rating enables the reputation filter (>=95 %, >=100 HITs).
	Rating bool
	// RecordResponses keeps every raw worker assignment of every yes/no
	// HIT in platform commit order, retrievable via Responses — the
	// input the Dawid–Skene estimators (DawidSkene, IncrementalDS)
	// consume for post-hoc truth inference.
	RecordResponses bool
	// AdversaryStrategy plants adversarial workers: the named
	// WorkerStrategy ("lazy-yes", "random-spam", "colluding-liar")
	// overrides the final answers of an AdversaryRate fraction of the
	// pool, assigned as a deterministic RNG-free stripe. Honest
	// workers' answers are byte-identical to an adversary-free
	// deployment. Empty (or "honest") disables the overlay.
	AdversaryStrategy string
	// AdversaryRate is the adversarial fraction of the pool in [0, 1];
	// ignored when AdversaryStrategy is empty.
	AdversaryRate float64
}

// NewSimulatedCrowd builds a simulated crowd over the dataset.
func NewSimulatedCrowd(ds *Dataset, seed int64, opts CrowdOptions) (*SimulatedCrowd, error) {
	cfg := crowd.DefaultConfig(seed)
	if opts.Assignments > 0 {
		cfg.Assignments = opts.Assignments
	}
	if opts.PoolSize > 0 {
		cfg.Profile = crowd.DefaultProfile(opts.PoolSize)
	}
	if opts.Qualification {
		cfg.Qualification = crowd.DefaultQualification()
	}
	if opts.Rating {
		cfg.Rating = crowd.DefaultRating()
	}
	var log *crowd.ResponseLog
	if opts.RecordResponses {
		log = &crowd.ResponseLog{}
		cfg.Responses = log
	}
	if opts.AdversaryStrategy != "" && opts.AdversaryStrategy != "honest" {
		strat, err := crowd.StrategyByName(opts.AdversaryStrategy)
		if err != nil {
			return nil, err
		}
		cfg.Adversary = crowd.AdversaryConfig{Rate: opts.AdversaryRate, Strategy: strat}
	}
	p, err := crowd.NewPlatform(ds, cfg)
	if err != nil {
		return nil, err
	}
	return &SimulatedCrowd{platform: p, log: log}, nil
}

// Responses returns the recorded assignment log (nil unless the crowd
// was built with RecordResponses): one Response per worker per yes/no
// HIT in commit order, ready for DawidSkene or IncrementalDS.SyncLog.
func (c *SimulatedCrowd) Responses() *ResponseLog {
	return c.log
}

// AnswerFeed exposes the deployment's raw answer stream for the trust
// middleware (Auditor.WithTrust / TrustConfig.Feed). It is nil unless
// the crowd was built with RecordResponses — trust scoring needs the
// per-worker answers the log records.
func (c *SimulatedCrowd) AnswerFeed() AnswerFeed {
	if c.log == nil {
		return nil
	}
	return c.log
}

// Screener exposes the platform's worker-exclusion hook for the trust
// middleware (TrustConfig.Screen): distrusted workers are dropped from
// future assignment draws at round boundaries, with at least one
// eligible worker always retained.
func (c *SimulatedCrowd) Screener() WorkerScreener {
	return c.platform
}

// Warm replays a journal's committed rounds into a fresh crowd built
// with the journaled run's dataset, seed and options, so the live
// rounds of a resumed audit draw the same workers an uninterrupted run
// would. Call it before the audit starts, with the records
// OpenJournal returned. It fails with ErrJournalMismatch when the
// crowd does not reproduce the journal's answers.
func (c *SimulatedCrowd) Warm(replay []RoundRecord) error {
	return c.platform.Warm(replay)
}

// SetQuery implements Oracle.
func (c *SimulatedCrowd) SetQuery(ids []ObjectID, g Group) (bool, error) {
	return c.platform.SetQuery(ids, g)
}

// ReverseSetQuery implements Oracle.
func (c *SimulatedCrowd) ReverseSetQuery(ids []ObjectID, g Group) (bool, error) {
	return c.platform.ReverseSetQuery(ids, g)
}

// PointQuery implements Oracle.
func (c *SimulatedCrowd) PointQuery(id ObjectID) ([]int, error) {
	return c.platform.PointQuery(id)
}

// SetQueryBatch implements BatchOracle: the whole round posts under
// one platform lock and answers in request order, keeping
// identically-seeded parallel audits reproducible.
func (c *SimulatedCrowd) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	return c.platform.SetQueryBatch(reqs)
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (c *SimulatedCrowd) PointQueryBatch(ids []ObjectID) ([][]int, error) {
	return c.platform.PointQueryBatch(ids)
}

// HITCost returns the deployment's cost model — assignments times the
// pricing model's per-assignment quote plus the platform fee — for
// denominating a Budget.MaxSpend in the same dollars the ledger
// tracks.
func (c *SimulatedCrowd) HITCost() CostFunc {
	return c.platform.HITCost()
}

// Cost returns the deployment's accumulated cost.
func (c *SimulatedCrowd) Cost() crowd.LedgerSnapshot {
	return c.platform.Ledger().Snapshot()
}

// ResetCost clears the ledger between audits.
func (c *SimulatedCrowd) ResetCost() {
	c.platform.Ledger().Reset()
}
