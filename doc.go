// Package imagecvg identifies representation bias in unlabeled image
// datasets with a minimal number of crowd tasks, implementing the
// algorithms of "Data Coverage for Detecting Representation Bias in
// Image Datasets: A Crowdsourcing Approach" (Mousavi, Shahbazi,
// Asudeh — EDBT 2024).
//
// A dataset covers a demographic group when it contains at least tau
// objects of that group. Because image collections rarely carry
// demographic annotations, establishing coverage requires asking
// someone — a crowd — about the images, and every question costs
// money. The package's core is Group-Coverage, a divide-and-conquer
// group-testing procedure over set queries ("does this batch of
// images contain at least one female?") that decides coverage in
// Theta(N/n + tau*log n) tasks instead of the Theta(N) point labels a
// naive audit needs. On top of it sit Multiple-Coverage (many groups,
// with super-group aggregation), Intersectional-Coverage (maximal
// uncovered patterns over several sensitive attributes), and
// Classifier-Coverage (exploiting an existing, possibly unreliable,
// pre-trained classifier).
//
// # Quick start
//
//	ds, _ := imagecvg.GenerateBinary(10_000, 40, 7) // 40 females hidden in 10k images
//	auditor := imagecvg.NewAuditor(imagecvg.NewTruthOracle(ds), 50, 50)
//	res, _ := auditor.AuditGroup(ds.IDs(), imagecvg.FemaleGroup(ds.Schema()))
//	fmt.Println(res) // "female: uncovered, count>=40 (exact), 522 tasks"
//
// Replace the truth oracle with NewSimulatedCrowd (or any custom
// Oracle implementation bridging to a real crowdsourcing platform) to
// audit through imperfect, redundantly-assigned, majority-voted
// workers with full cost accounting.
//
// # Concurrent audit engine
//
// Real deployments post whole rounds of HITs concurrently, so the
// auditor ships a concurrent engine alongside the paper's sequential
// algorithms. Three composable pieces drive it:
//
//   - BatchOracle extends Oracle with SetQueryBatch/PointQueryBatch so
//     one call posts an entire round; TruthOracle and the simulated
//     crowd implement it natively, and AsBatchOracle lifts any plain
//     Oracle through a bounded worker pool.
//   - Auditor.WithParallelism runs independent super-group audits (and
//     the covered-penalty re-audits) of Multiple-Coverage as concurrent
//     tasks advancing in lockstep rounds, and runs Classifier-Coverage
//     on its batched round engine (one point-query round for the
//     precision sample, bounded Label rounds with a deterministic
//     early stop, one reverse-set round per Partition tree level).
//     With an order-independent oracle the verdicts and task counts
//     are identical to the sequential engine at every parallelism
//     level.
//   - Auditor.WithCache installs a deduplicating query cache keyed
//     on the canonicalized id-set and group (length-prefixed, so no
//     crafted input can collide two distinct queries onto one cached
//     answer), so a HIT already paid for is never posted twice;
//     transient errors are never cached, and Auditor.WithRetry
//     re-posts them instead of aborting. The stack setters (WithCache,
//     WithBudget, WithJournal, WithTrust) are order-free: the auditor
//     always assembles cache, trust, journal and governor in one fixed
//     order over the oracle.
//
// # Budget governance
//
// Crowd cost is the paper's single performance metric, and a deployment
// must be able to cap it. Auditor.WithBudget installs one shared budget
// governor — max HITs, per-kind caps, or a dollar MaxSpend priced by a
// CostFunc (SimulatedCrowd.HITCost derives one from the deployment's
// pricing model, assignments and platform fee) — over every audit the
// auditor runs. The accounting distinguishes committed from speculative
// HITs: the governor charges each query actually posted (including
// speculative round over-issue a deterministic early stop later
// discards, and re-posted retries — they were all paid), refuses
// everything beyond the cap without posting it, and the batched engines
// narrow their speculative rounds to the remaining headroom (Label
// rounds shrink to min(tau-verified, headroom); the Partition frontier
// is clipped to the nodes that could still reach the early stop).
//
// Exhaustion is an expected outcome, not an error: the audit returns a
// deterministic partial result — Result.Exhausted set, per-group
// Settled flags, and best-effort covered/uncovered bounds proven by the
// committed answers (Intersectional audits keep Unknown verdicts rather
// than inventing definite ones). On the lockstep engine the exhaustion
// point in the canonical query sequence, the partial verdicts, the
// committed task counts and the ledger spend are byte-identical at
// every WithParallelism value.
//
// # Determinism contract
//
// There are two engines, and every round of either reaches the oracle
// as one batch call: the paper's sequential algorithms (WithParallelism
// 1, the default), which run one walk at a time with one query per
// Algorithm 1, Label and Partition round and post each sampling phase
// as one round, and lockstep rounds, which every WithParallelism(k > 1)
// audit runs on — concurrent audits advance in virtual rounds whose
// queries commit to the oracle as one batch in canonical (super-group,
// member, query-sequence) order. Batched rounds keep the concurrent
// engine's latency win, because a round's HITs still post together.
// Reproducibility then depends on the oracle:
//
//   - Order-INDEPENDENT oracles — TruthOracle, any bridge whose answer
//     is a function of the request alone — reproduce the sequential
//     engine bit-for-bit at every WithParallelism value.
//   - Order-DEPENDENT oracles — the simulated crowd, whose worker
//     draws advance an RNG per HIT, or any stateful aggregator — see
//     the identical query sequence at every WithParallelism value
//     above 1, so verdicts, task counts and spend are bit-identical
//     there, provided the oracle answers batches in request order
//     (SimulatedCrowd does natively). Auditor.WithLockstep runs the
//     rounds at width 1 too, making width 1 match every other width.
//
// # Audit service
//
// For long-running deployments the package exposes the whole audit
// stack as a multi-tenant job service: NewAuditService runs a job
// engine where every audit (multiple, intersectional or classifier
// mode) is a persistent job with a queued -> running -> done / failed
// / cancelled lifecycle, its own crash-safe round journal under the
// service's data directory, and a budget clamped to its tenant's
// remaining headroom. N jobs share one bounded worker pool;
// AuditService.Handler serves the HTTP surface (POST /jobs,
// GET /jobs/{id}, GET /jobs/{id}/stream for server-sent round events,
// DELETE /jobs/{id}) that `cvgrun -serve :8080 -data-dir dir` binds.
//
// The service inherits the journal subsystem's contract wholesale: a
// job killed mid-run — engine shutdown, process crash, SIGINT — parks
// at its last committed round, and the next service start over the
// same data directory resumes it from its journal, finishing with
// verdicts, task tallies and ledger spend byte-identical to a job
// that was never interrupted, stateful simulated crowd included.
// Cancellation lands at round boundaries only, so a cancelled job's
// journal holds exactly the rounds its status reports.
//
// The service's HTTP API is unauthenticated: tenants are a
// budget-accounting boundary, not a security boundary, and any
// client that reaches the listener can act on any tenant's jobs.
// Run it single-operator on a trusted network, or front it with an
// authenticating proxy that pins each caller to its own tenant.
//
// # Experiment engine
//
// Above the audits sits a parallel trial-runner (exposed as RunTrials,
// fully fleshed out in the internal experiment package): an experiment
// is a grid of configurations, each repeated over independent trials
// that fan out across the same bounded worker pool, with per-trial
// child RNGs derived from the base seed. Aggregation (mean, stddev,
// 95% CI) follows trial order, so results are byte-identical at every
// parallelism level — the entire paper evaluation (cvgbench) rides it,
// and a shared query cache can span all trials of a configuration so
// re-audits of one dataset amortize their HITs.
//
// The determinism contract underpinning all of the above is enforced
// mechanically: cmd/cvglint is a vet-compatible static analyzer suite
// (range-over-map in commit paths, wall-clock reads, global or
// time-seeded rand, sentinel-error identity comparisons) run by CI
// over the whole tree — see the "Static enforcement" section of
// internal/core's package documentation for the rules and the
// //lint:<rule> suppression syntax.
//
// The exported API is a thin façade; the implementation lives in
// internal packages (core, pattern, dataset, crowd, classifier, ml,
// experiment, sim) whose relevant types are re-exported here by alias.
package imagecvg
