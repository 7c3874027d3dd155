package imagecvg

import (
	"math/rand"

	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/journal"
	"imagecvg/internal/pattern"
	"imagecvg/internal/repair"
)

// Extension surface beyond the paper's algorithms: acquisition
// planning, batched (low-latency) audits, the statistical baseline,
// audit transcripts, and execution-tree tracing.

type (
	// RepairPlan is an acquisition plan repairing every uncovered
	// pattern.
	RepairPlan = repair.Plan
	// RoundsResult is a batched audit outcome (verdict plus rounds).
	RoundsResult = core.RoundsResult
	// SampledResult is the statistical estimator's outcome.
	SampledResult = core.SampledResult
	// RecordingOracle wraps an Oracle and keeps the audit transcript.
	RecordingOracle = core.RecordingOracle
	// ReplayOracle re-answers a recorded transcript.
	ReplayOracle = core.ReplayOracle
	// QueryRecord is one transcript entry.
	QueryRecord = core.QueryRecord
	// ExecutionTrace records a Group-Coverage execution tree.
	ExecutionTrace = core.ExecutionTrace

	// BatchOracle extends Oracle with whole-round execution; implement
	// it to post a round of HITs to a platform in one request.
	BatchOracle = core.BatchOracle
	// SetRequest is one set/reverse-set query of a batch round.
	SetRequest = core.SetRequest
	// CachingOracle deduplicates identical queries against an oracle.
	CachingOracle = core.CachingOracle
	// CacheStats tallies cache hits and misses per HIT type.
	CacheStats = core.CacheStats
	// RetryPolicy re-posts transiently failing HITs.
	RetryPolicy = core.RetryPolicy

	// RoundJournal persists committed audit rounds for checkpoint/resume.
	RoundJournal = core.RoundJournal
	// RoundRecord is one committed oracle round — the checkpoint unit.
	RoundRecord = core.RoundRecord
	// FileJournal is the crash-safe file-backed RoundJournal.
	FileJournal = journal.Journal

	// TrustPolicy tunes the trust middleware's sequential likelihood
	// test (probe schedule, hypothesis error rates, distrust boundary).
	TrustPolicy = core.TrustPolicy
	// TrustConfig assembles the trust middleware: policy, gold probes,
	// answer feed and worker screener; see Auditor.WithTrust.
	TrustConfig = core.TrustConfig
	// GoldProbe is one gold-standard probe HIT with a known answer.
	GoldProbe = core.GoldProbe
	// TrustReport snapshots per-worker trust scores and exclusions.
	TrustReport = core.TrustReport
	// TrustScore is one worker's evidence tally and verdict.
	TrustScore = core.TrustScore
	// WorkerAnswer is one raw worker answer as an AnswerFeed serves it.
	WorkerAnswer = core.WorkerAnswer
	// AnswerFeed serves delta reads of a platform's raw answer stream;
	// SimulatedCrowd.AnswerFeed returns one.
	AnswerFeed = core.AnswerFeed
	// WorkerScreener applies trust exclusions to a platform;
	// SimulatedCrowd.Screener returns one.
	WorkerScreener = core.WorkerScreener
	// WorkerStrategy overrides a simulated worker's answers (adversarial
	// crowd modeling); see CrowdOptions.AdversaryStrategy.
	WorkerStrategy = crowd.WorkerStrategy
)

// Re-exported transcript and engine constructors.
var (
	// NewRecordingOracle wraps any oracle with transcript recording.
	NewRecordingOracle = core.NewRecordingOracle
	// NewReplayOracle replays a recorded transcript.
	NewReplayOracle = core.NewReplayOracle
	// NewCachingOracle wraps any oracle with the deduplicating cache.
	NewCachingOracle = core.NewCachingOracle
	// NewBatchAdapter lifts a plain Oracle into batched execution over
	// a bounded worker pool.
	NewBatchAdapter = core.NewBatchAdapter
	// AsBatchOracle returns the oracle's native batch implementation
	// or lifts it with NewBatchAdapter.
	AsBatchOracle = core.AsBatchOracle
	// ErrTransient marks retryable crowd failures.
	ErrTransient = core.ErrTransient

	// CreateJournal starts a fresh crash-safe journal file.
	CreateJournal = journal.Create
	// OpenJournal loads an existing journal for resumption, recovering
	// a torn tail to the last complete round.
	OpenJournal = journal.Open
	// LoadJournal reads a journal's complete rounds without opening it
	// for appends.
	LoadJournal = journal.Load
	// ErrJournalMismatch marks a replay whose requests diverge from the
	// journaled run.
	ErrJournalMismatch = core.ErrJournalMismatch
	// ErrJournalCorrupt marks journal damage beyond a recoverable torn
	// tail.
	ErrJournalCorrupt = journal.ErrCorrupt

	// DefaultTrustPolicy is the trust middleware's default sequential
	// likelihood test.
	DefaultTrustPolicy = core.DefaultTrustPolicy
	// GoldProbes derives a deterministic gold-probe battery from ground
	// truth.
	GoldProbes = core.GoldProbes
	// NewTrustOracle wraps any oracle with the trust middleware
	// directly; most callers use Auditor.WithTrust instead.
	NewTrustOracle = core.NewTrustOracle
	// WorkerStrategyByName resolves an adversarial worker strategy
	// ("lazy-yes", "random-spam", "colluding-liar"; "" or "honest" is
	// nil).
	WorkerStrategyByName = crowd.StrategyByName
)

// NewRepairPlan computes the acquisitions that bring every pattern of
// the schema to tau, from exact fully-specified subgroup counts
// (pattern.SubgroupIndex order).
func NewRepairPlan(s *Schema, counts []int, tau int) (*RepairPlan, error) {
	return repair.NewPlan(s, counts, tau)
}

// PlanRepair derives an acquisition plan directly from an
// intersectional audit: each fully-specified subgroup contributes the
// audit's count lower bound (exact for uncovered subgroups, >= tau for
// covered ones), so the plan is conservative — it never under-acquires.
func (a *Auditor) PlanRepair(s *Schema, res *IntersectionalResult) (*RepairPlan, error) {
	counts := make([]int, s.NumSubgroups())
	for i, p := range pattern.Subgroups(s) {
		counts[i] = res.Verdicts[p.Key()].Bounds.Lo
	}
	return repair.NewPlan(s, counts, a.tau)
}

// AuditGroupBatched is the level-synchronous variant of AuditGroup:
// every tree level is issued as one concurrent batch of at most
// parallelism in-flight queries, bounding audit latency by
// 1+ceil(log2 n) rounds. The oracle must be safe for concurrent use.
func (a *Auditor) AuditGroupBatched(ids []ObjectID, g Group, parallelism int) (RoundsResult, error) {
	return core.GroupCoverageRounds(a.stack.Top, ids, a.setSize, a.tau, g, parallelism)
}

// AuditGroupTraced is AuditGroup with execution-tree recording; the
// returned trace renders as text (String) or Graphviz (DOT).
func (a *Auditor) AuditGroupTraced(ids []ObjectID, g Group) (GroupResult, *ExecutionTrace, error) {
	trace := &ExecutionTrace{}
	res, err := core.GroupCoverageOpt(a.stack.Top, ids, a.setSize, a.tau, g,
		core.GroupCoverageOptions{Trace: trace})
	return res, trace, err
}

// AuditSampled runs the statistical baseline: uniform point-query
// sampling with a Hoeffding confidence interval at level 1-delta and a
// budget of maxTasks queries. Unlike AuditGroup it may return
// undecided, and its verdicts are only probabilistic.
func (a *Auditor) AuditSampled(ids []ObjectID, g Group, delta float64, maxTasks int) (SampledResult, error) {
	return core.SampledCoverage(a.stack.Top, ids, a.tau, delta, maxTasks, g,
		rand.New(rand.NewSource(a.seed)))
}
