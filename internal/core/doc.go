// Package core implements the paper's contribution: crowd-efficient
// coverage identification for image datasets. It contains
//
//   - Group-Coverage (Algorithm 1): the divide-and-conquer group-testing
//     procedure deciding whether one group reaches the coverage
//     threshold tau with Theta(N/n + tau log n) set queries;
//   - Base-Coverage (Algorithm 7): the point-query baseline;
//   - Multiple-Coverage (Algorithm 2) with LabelSamples and Aggregate
//     (Algorithm 6): the super-group heuristic for many groups;
//   - Intersectional-Coverage (Algorithm 3): MUP discovery over the
//     pattern graph of several sensitive attributes;
//   - Classifier-Coverage (Algorithm 4) with Partition and Label
//     (Algorithm 5): exploiting a pre-trained classifier's predictions;
//   - the theoretical task bounds of section 3.2.
//
// Algorithms interact with the crowd only through the Oracle
// interface, implemented by the crowd-platform simulator, by the
// perfect TruthOracle used in the paper's synthetic experiments, and
// by test doubles.
//
// On top of the sequential algorithms sits the concurrent audit
// engine:
//
//   - BatchOracle (batch.go) extends Oracle with whole-round
//     execution, the way HIT groups are actually posted; AsBatchOracle
//     lifts plain oracles through a bounded worker pool, while
//     TruthOracle and the crowd platform implement it natively.
//   - CachingOracle (cache.go) deduplicates identical queries on a
//     canonicalized key (sorted id-set plus group members) with
//     in-flight collapsing; errors are never cached. Like every
//     middleware it lifts its inner oracle once and forwards only
//     rounds; single queries are one-element rounds.
//   - MultipleOptions.Parallelism (parallel.go) runs Multiple-Coverage
//     with super-group audits and covered-penalty re-audits as
//     concurrent lockstep tasks and batched sampling. Verdicts, task
//     counts and result bytes match the sequential engine exactly for
//     order-independent oracles at any parallelism.
//   - RetryPolicy (retry.go) re-posts transiently failing HITs with
//     jittered backoff drawn from the audit's RNG. Over a natively
//     batching inner oracle a retry re-posts only the unanswered
//     suffix of the round and splices the answers, so a
//     partial prefix a budget governor already committed — and paid —
//     is never charged twice.
//   - GroupCoverageRounds (rounds.go) issues each tree level as one
//     SetQueryBatch round, so even the order-dependent crowd simulator
//     reproduces identical audits at every parallelism setting.
//   - The lockstep scheduler (lockstep.go) extends that guarantee to
//     the whole multi-group engine: concurrent audits advance in
//     virtual rounds whose queries commit as one BatchOracle round in
//     canonical (super-group, member, query-sequence) order, so even
//     order-dependent oracles produce bit-identical verdicts, task
//     counts and spend at every Parallelism value.
//   - Classifier-Coverage (classifier_parallel.go) is one round walk
//     with two modes, and runTasks (lockstep.go) picks between them
//     for it and for the Intersectional resolution phase. In lockstep
//     mode (Lockstep, or Parallelism > 1) it comes under the same
//     contract: the precision sample posts as one point-query round,
//     the Label phase as bounded rounds of max(1, tau - verified)
//     point queries whose answers commit in predicted-set order with a
//     deterministic early stop (stop at the first index where verified
//     >= tau, discard later in-flight answers), and the Partition
//     phase as clipped reverse-set rounds with the sibling inference
//     applied at commit time. Round composition is a pure function of
//     committed answers — never of the pool width. In sequential mode
//     (Parallelism <= 1) the same walk posts one query per Label and
//     Partition round and every query on its own, in the paper's
//     order.
//
// The determinism contract rests on two engines: the sequential
// reference (Parallelism <= 1) and lockstep rounds (Parallelism > 1;
// the Lockstep options pick rounds at width 1 too). For
// Classifier-Coverage the two engines are the two modes of one walk.
// By oracle kind:
//
//   - order-independent oracles (TruthOracle, stateless crowd bridges,
//     anything whose answer is a function of the request alone):
//     verdicts and task counts equal the sequential engine's on both
//     engines at any Parallelism.
//   - order-dependent oracles (the crowd Platform, whose worker draws
//     advance an RNG per HIT; any stateful simulator or aggregator):
//     the lockstep engine reproduces itself bit-for-bit at every
//     Parallelism, provided the oracle implements BatchOracle natively
//     with batches executing in request order — the property the
//     canonical round commit leans on. The sequential engine asks in
//     the paper's order instead, so its results differ from the
//     round engine's.
//
// Every audit algorithm in the package honors the contract —
// Multiple-, Intersectional- and Classifier-Coverage all batch their
// rounds through the lockstep scheduler. One asymmetry remains by
// design:
// the batched engines count only committed queries in their task
// tallies (matching the sequential engines exactly), while speculative
// in-flight answers a deterministic early stop discards were still
// paid HITs — the ledger, not the task count, carries that over-issue.
//
// Budget governance (budget.go) caps that spend end to end: a Budget
// (max HITs, per-kind caps, max spend under a CostFunc) is enforced by
// the BudgetedOracle middleware, which charges committed queries one at
// a time in canonical order and admits only the affordable prefix of a
// batch — the one middleware exercising the partial-prefix clause of
// the BatchOracle contract, which the lockstep commit path delivers to
// its tasks instead of discarding paid answers. Every audit algorithm
// translates the governor's ErrBudgetExhausted into a deterministic
// partial result (Exhausted flags, per-group Settled markers,
// best-effort bounds from committed answers; Intersectional keeps
// Unknown verdicts) — never a panic, an error, or a hung round. The
// batched engines additionally narrow their speculative rounds to the
// governor's remaining headroom: Label rounds post min(tau - verified,
// headroom) point queries, and the Partition frontier is clipped to
// the queue prefix that could still reach the early stop. On the
// lockstep engine the exhaustion point, partial verdicts, committed
// task counts and ledger spend are byte-identical at every Parallelism
// value.
//
// # Checkpoint, resume, and cancellation
//
// Because round composition on the lockstep engine is a pure function of
// committed answers — never of scheduling or Parallelism — a
// serialized log of the committed rounds is a complete checkpoint of
// an audit. The JournalingOracle middleware (journal.go) realizes
// that: it appends one RoundRecord per committed batch round (the
// requests, the positional answers, how the round ended, and a
// snapshot of the budget governor's ledger) to a RoundJournal, and in
// replay mode it answers the first K rounds from a previous run's
// records without touching the inner oracle at all, switching live
// when the journal runs dry.
// Replay verifies that the resumed run issues byte-identical requests
// (ErrJournalMismatch otherwise — a journal is only valid for the
// exact audit configuration that wrote it) and restores the governor's
// spend from each record, which yields the accounting rule the whole
// subsystem is built for: a paid HIT is never re-charged. Replayed
// rounds reach neither the crowd nor the budget; an interrupted audit
// resumed from its journal ends with verdicts, task tallies and ledger
// spend byte-identical to a run that was never interrupted (the
// kill/resume conformance matrix in internal/crowd proves this at
// P in {1, 2, 4, 16} for all three audit algorithms, budgeted and
// unbudgeted). NewStack (stack.go) places the journal in the one legal
// stack order.
//
// Cancellation rides the same round boundaries: MultipleOptions.Ctx /
// ClassifierOptions.Ctx thread a context.Context through the engines,
// and a cancelled context fails the next round before it reaches the
// oracle — checked in the lockstep commit path, between audits on the
// sequential engine, in the journaling middleware, and in the retry
// backoff (which selects on the context instead of sleeping through
// it). A killed job
// therefore never half-posts a round: every round either committed
// (and was journaled) or never touched the crowd, which is what makes
// kill-at-round-K exactly resumable.
//
// # Audit service
//
// The serve mode (internal/server, surfaced as cvgrun -serve) runs
// many such journaled audits as persistent jobs: each job owns one
// RoundJournal file in a data directory, its engine threads a per-job
// context into the options, and a worker pool built on RunBounded
// drains the queue. The properties this package guarantees are
// exactly what make that service correct — commits-or-never
// cancellation means an interrupted job's journal is a complete
// checkpoint; replay verification means a resumed job either
// reproduces the original audit byte-for-byte or fails loudly with
// ErrJournalMismatch; and ledger restoration means a tenant's budget
// accounting survives restarts without double-charging a single HIT.
// For the stateful crowd platform the service re-warms a fresh,
// identically-seeded platform by re-posting the journal's answered
// prefixes before going live, reconstructing the platform's RNG
// stream so post-resume rounds draw the same workers they would have
// drawn uninterrupted.
//
// # Trust and adversarial workers
//
// The trust middleware (trust.go) defends an audit against workers who
// answer strategically rather than noisily — the crowd simulator's
// WorkerStrategy overlays (lazy-yes, random-spam, colluding-liar) model
// exactly that. A TrustOracle (placed by NewStack) does three things
// at round boundaries only:
//
//   - it appends one gold-standard probe HIT (a singleton set query
//     whose true answer is known from ground truth, built by
//     GoldProbes) to every ProbeEvery-th committed set round, cycling a
//     fixed battery on a schedule that is a pure function of the
//     committed set-round count — never of the pool width or the feed;
//   - it consumes the AnswerFeed's delta after each committed round and
//     scores every worker's raw answers with a sequential likelihood
//     ratio (SPRT): probe answers score against the gold truth,
//     ordinary answers against the round's aggregated consensus,
//     discounted by ContradictionWeight because the consensus itself
//     corrupts under heavy collusion — gold probes are the only
//     evidence that cannot;
//   - it pushes workers whose score crosses DistrustBelow (a one-way
//     ratchet, after MinObservations) to the WorkerScreener, which
//     drops them from future assignment draws while always retaining at
//     least one eligible worker.
//
// The middleware inherits every determinism guarantee it sits on:
// under Lockstep the probe schedule, trust scores and screening
// decisions are byte-identical at every Parallelism (the
// robustness-frontier golden and the adversarial conformance matrix at
// P in {1, 2, 4, 16} pin this), and because trust sits above the
// journal, probe-augmented rounds are journaled — a resumed audit
// re-issues the identical probes, re-reads the surviving feed, and
// restores every trust score exactly (the feed is process-local and
// not journaled, so exact score restoration holds for in-process
// resume; a fresh process replays verdicts and the probe schedule
// exactly but accumulates trust evidence only from live rounds). A
// budget governor below may deny
// the appended probe alone; the middleware swallows that denial when
// every caller request was answered, so probing degrades before the
// audit does. Feed starvation (no recorded answers) degrades scoring,
// never determinism.
//
// # Performance
//
// The audit inner loop — park a query, commit a round, draw workers,
// perceive a glyph, aggregate — is allocation-free at steady state.
// The profiling workflow that keeps it that way:
//
//	cvgbench -exp audit-throughput                # HITs/sec + allocs/HIT
//	cvgbench -exp audit-throughput -cpuprofile p -memprofile p
//	go tool pprof p/audit-throughput.mem.pprof
//	go test -bench AuditThroughput -benchmem .    # the gate CI watches
//
// What is pooled, and where: the lockstep scheduler (lockstep.go)
// ping-pongs the parked-round slice through a spare backing array,
// reuses the set/point split, the SetRequest round and the point-id
// round across commits, and recycles one lockstepQuery slot per task
// (safe because a parked task blocks until its round delivers, so at
// most one query per task is ever in flight). The caching oracle
// (cache.go) builds keys into reused byte scratch and looks them up
// via Go's allocation-free map[string(bytes)] form, materializing a
// string only when a key is stored; batch rounds steal the scratch for
// the duration of the call so keys survive the unlock. The crowd
// platform reuses its worker-draw permutation, answer and subgroup
// buffers under the platform lock, and perceives from the clean glyph
// of each object's subgroup: without noise a look is a table lookup,
// with noise one perturbed copy of the template is decoded.
//
// The invariant all of it preserves: RNG consumption per committed HIT
// is byte-for-byte what the allocating code drew — the scratch worker
// draw replays rand.Perm's exact loop, perception draws one NormFloat64
// per varying pixel (where some two templates differ) in ascending
// pixel order (none without noise), and slip corruption keeps its
// conditional second Intn. Any optimization that changes a draw
// sequence changes every golden artifact downstream; the golden suite
// and the lockstep conformance matrix pin this. The one sanctioned
// exception is a versioned transcript change: imagegen.PerceptionVersion
// 2 stopped drawing for the pixels every template shares, a test pins
// that each look's answer distribution did not move, and the crowd
// goldens name the version in their header. The complementary
// ownership rule: scratch slices handed to aggregators or the response
// log are read-only for the duration of the call, and anything a
// caller may retain (aggregated labels, batch answer slices) is
// freshly allocated.
//
// # Static enforcement of the determinism contract
//
// Everything above — canonical commit order, seeded child RNGs,
// frozen per-HIT draw transcripts, kill/resume byte-identity — is a
// contract ordinary Go code can silently violate with one innocuous
// line. The cvglint tool (cmd/cvglint, analyzers in internal/lint)
// checks the four violations that have actually threatened it,
// mechanically, on every build:
//
//   - maprange: a range over a map in a canonical-commit package
//     (internal/core, internal/server, internal/journal,
//     internal/crowd) iterates in a different order every run. Collect
//     the keys and sort them before acting, or — when the loop body is
//     provably commutative — annotate it.
//   - wallclock: time.Now / time.Since / time.Until in a commit,
//     audit, or replay path makes round composition a function of the
//     wall clock, which breaks resume identity. Timing must derive
//     from committed state; the HTTP/SSE layer
//     (internal/server/http.go) and test files are exempt.
//   - globalrand: package-level math/rand draws consume the shared
//     global Source, and time-seeded sources produce a different draw
//     transcript every run. All randomness must flow from seeded child
//     RNGs split from the experiment seed.
//   - sentinelerr: == or != (or a switch case) against an exported
//     sentinel error (ErrBudgetExhausted, ErrJournalCorrupt,
//     ErrJournalMismatch, ErrTransient, ErrTenantBudget,
//     ErrInvalidConfig, …) breaks as soon as middleware wraps the
//     error; errors.Is is required.
//
// A justified finding is suppressed with a //lint:<rule> directive
// (rules: ordered, wallclock, rand, sentinel) on the flagged line or
// the line above, followed by a one-line justification — a bare
// directive with no justification is itself a diagnostic. Run it
// standalone as `cvglint ./...` or through the build cache as
// `go vet -vettool=$(pwd)/bin/cvglint ./...`; CI does both the vet
// form and the analyzers' own corpus tests on every change.
package core
