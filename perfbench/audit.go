package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/journal"
	"imagecvg/internal/pattern"
	"imagecvg/internal/server"
	"imagecvg/perfbench/internal/stat"
)

// setupReps is how many times a run builds its set-up from scratch;
// setup_s is the median, so a slow build or a slow second of the host
// does not move it.
const setupReps = 15

// window accumulates the timed iterations of one run. Rates are totals
// (work over the summed timed seconds), never means of per-iteration
// rates.
type window struct {
	elapsed time.Duration
	hits    int // committed platform HITs
	jobs    int
	mallocs uint64
	bytes   uint64
}

// timed runs body as one timed iteration: a GC first, so no earlier
// garbage is collected on its clock, then the wall clock and the
// allocation counters around it.
func (w *window) timed(body func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := body()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	w.elapsed += d
	w.mallocs += after.Mallocs - before.Mallocs
	w.bytes += after.TotalAlloc - before.TotalAlloc
	return err
}

// endToEnd fills the end-to-end metrics of a finished window.
func (w *window) endToEnd(m map[string]float64, setupS, heapMB float64) {
	secs := w.elapsed.Seconds()
	hits := float64(w.hits)
	m["setup_s"] = setupS
	m["hits_per_s"] = hits / secs
	m["hits_per_job"] = hits / float64(w.jobs)
	m["allocs_per_hit"] = float64(w.mallocs) / hits
	m["bytes_per_hit"] = float64(w.bytes) / hits
	m["heap_mb"] = heapMB
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setUp builds a run's set-up setupReps times from scratch and returns
// the last build with the median build time in seconds. Every build
// starts after a full collection, so no earlier build's garbage is
// collected on its clock; discard, if set, releases each earlier build
// outside the clock.
func setUp[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		out   T
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard(out)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		out = v
	}
	return out, stat.Median(times), nil
}

// measured reports whether a run that has started job i (of a cycle of
// cycle jobs) has measured enough: at least the configured seconds, in
// whole cycles, and in a traced run at least one traced and one
// untraced cycle.
func measured(cfg config, i, cycle int, plain, traced window) bool {
	if i%cycle != 0 || plain.elapsed.Seconds()+traced.elapsed.Seconds() < cfg.seconds {
		return false
	}
	return !cfg.trace || (plain.jobs > 0 && traced.jobs > 0)
}

// tracedJob reports whether job i runs traced: a traced run alternates
// traced and untraced cycles, so the overhead ratio compares like with
// like.
func tracedJob(cfg config, i, cycle int) bool {
	return cfg.trace && (i/cycle)%2 == 0
}

// newMetrics returns a metric map with every per-layer figure at 0 (no
// work), for a workload to overwrite with what it measured.
func newMetrics() map[string]float64 {
	m := make(map[string]float64, len(endToEnd)+len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// finish sets success_rate from the checks made.
func (r *report) finish() *report {
	r.metrics["success_rate"] = float64(r.attempted-r.failed) / float64(r.attempted)
	return r
}

// minorityDataset generates n objects over one attribute with values
// g0..gk: exactly minorities[i] objects in g(i+1), the rest in g0, in
// an order shuffled from seed. It returns the dataset and one group
// per value.
func minorityDataset(n int, minorities []int, seed int64) (*dataset.Dataset, []pattern.Group, error) {
	counts := make([]int, len(minorities)+1)
	values := make([]string, len(counts))
	counts[0] = n
	for i, m := range minorities {
		counts[i+1] = m
		counts[0] -= m
	}
	for i := range values {
		values[i] = fmt.Sprintf("g%d", i)
	}
	s := pattern.MustSchema(pattern.Attribute{Name: "group", Values: values})
	d, err := dataset.FromCounts(s, counts, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	return d, pattern.GroupsForAttribute(s, 0), nil
}

// quietPlatform is a crowd over d whose honest workers neither
// misperceive nor slip, with every glyph rendered up front, so the
// audit does not pay for rendering or per-pixel noise draws. Slips are
// off because a slipped label in the 100-object sample can make a
// majority object read as a minority one, which changes the audit's
// whole plan (its HITs, rounds and allocations) and so widens the
// spread from seed to seed.
func quietPlatform(d *dataset.Dataset, poolSize int, seed int64, mutate func(*crowd.Config)) (*crowd.Platform, error) {
	cfg := crowd.DefaultConfig(seed)
	cfg.Profile = crowd.DefaultProfile(poolSize)
	cfg.Profile.PerceptNoise = 0
	cfg.Profile.SlipMin, cfg.Profile.SlipMax = 0, 0
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := crowd.NewPlatform(d, cfg)
	if err != nil {
		return nil, err
	}
	p.WarmGlyphs()
	return p, nil
}

func marshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the result types are plain data
	}
	return data
}

func hashFile(path string) ([32]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, 0, err
	}
	return sha256.Sum256(data), int64(len(data)), nil
}

// ---- audit-bare -----------------------------------------------------

// bareParams shape audit-bare: the audit-throughput cells at engine
// parallelism 2.
type bareParams struct {
	N, Tau, SetSize    int
	Minorities         []int
	PoolSize           int
	ClsN, ClsTP, ClsFP int
	Parallelism        int
}

func defaultBareParams() bareParams {
	return bareParams{
		N: 100_000, Tau: 50, SetSize: 10, Minorities: []int{30, 28, 26}, PoolSize: 30,
		ClsN: 20_000, ClsTP: 4_000, ClsFP: 80, Parallelism: 2,
	}
}

// bareInputs are one seed's generated datasets. The audits only read
// the id slices, so every iteration shares them.
type bareInputs struct {
	p                          bareParams
	seed                       int64
	scan, cls                  *dataset.Dataset
	groups                     []pattern.Group
	clsGroup                   pattern.Group
	scanIDs, clsIDs, predicted []dataset.ObjectID
}

func newBareInputs(p bareParams, seed int64) (*bareInputs, error) {
	scan, groups, err := minorityDataset(p.N, p.Minorities, seed)
	if err != nil {
		return nil, err
	}
	cls, err := dataset.BinaryWithMinority(p.ClsN, p.ClsTP, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	g := dataset.Female(cls.Schema())
	predicted := cls.PredictedSet(g, p.ClsTP, p.ClsFP)
	shuffle := rand.New(rand.NewSource(seed + 2))
	shuffle.Shuffle(len(predicted), func(i, j int) { predicted[i], predicted[j] = predicted[j], predicted[i] })
	return &bareInputs{
		p: p, seed: seed, scan: scan, groups: groups, cls: cls, clsGroup: g,
		scanIDs: scan.IDs(), clsIDs: cls.IDs(), predicted: predicted,
	}, nil
}

// bareRig is one iteration's freshly seeded platforms, built outside
// the timed window.
type bareRig struct {
	scanP, clsP *crowd.Platform
}

func (in *bareInputs) rig() (*bareRig, error) {
	scanP, err := quietPlatform(in.scan, in.p.PoolSize, in.seed+7, nil)
	if err != nil {
		return nil, err
	}
	clsP, err := quietPlatform(in.cls, in.p.PoolSize, in.seed+8, nil)
	if err != nil {
		return nil, err
	}
	return &bareRig{scanP: scanP, clsP: clsP}, nil
}

// bareOutcome is what one iteration committed; checks compare it byte
// for byte with the reference (warm-up) run.
type bareOutcome struct {
	scan, cls []byte // serialized results: verdicts, task tallies
	uncovered []string
	covered   bool // the classifier audit's verdict
	hits      int  // committed platform HITs over both audits
}

func (o bareOutcome) equal(ref bareOutcome) error {
	switch {
	case !bytes.Equal(o.scan, ref.scan):
		return fmt.Errorf("scan result %s, reference %s", o.scan, ref.scan)
	case !bytes.Equal(o.cls, ref.cls):
		return fmt.Errorf("classifier result %s, reference %s", o.cls, ref.cls)
	case o.hits != ref.hits:
		return fmt.Errorf("%d HITs committed, reference %d", o.hits, ref.hits)
	}
	return nil
}

// planted checks the verdicts against the generated truth: exactly the
// planted minorities are uncovered, and the classifier's group (TP >=
// tau members) is covered.
func (in *bareInputs) planted(o bareOutcome) error {
	var want []string
	for i := range in.p.Minorities {
		if in.p.Minorities[i] < in.p.Tau {
			want = append(want, in.groups[i+1].Name)
		}
	}
	if fmt.Sprint(o.uncovered) != fmt.Sprint(want) {
		return fmt.Errorf("uncovered groups %v, planted %v", o.uncovered, want)
	}
	if o.covered != (in.p.ClsTP >= in.p.Tau) {
		return fmt.Errorf("classifier verdict covered=%v, planted %d members", o.covered, in.p.ClsTP)
	}
	return nil
}

// audit runs the scan and the classifier audit on the rig, straight
// into the platforms — or, with sp set, through one timing shim each —
// and returns the time spent inside the two audit calls.
func (in *bareInputs) audit(r *bareRig, sp *span) (bareOutcome, time.Duration, error) {
	p := in.p
	var scanO, clsO core.Oracle = r.scanP, r.clsP
	if sp != nil {
		scanO, clsO = newShim(r.scanP, p.Parallelism, sp), newShim(r.clsP, p.Parallelism, sp)
	}
	scanRng, clsRng := rand.New(rand.NewSource(in.seed+11)), rand.New(rand.NewSource(in.seed+12))
	t0 := time.Now()
	mr, err := core.MultipleCoverage(scanO, in.scanIDs, p.SetSize, p.Tau, in.groups, core.MultipleOptions{
		Rng: scanRng, Parallelism: p.Parallelism, Lockstep: true,
	})
	if err != nil {
		return bareOutcome{}, 0, fmt.Errorf("scan: %w", err)
	}
	cr, err := core.ClassifierCoverage(clsO, in.clsIDs, in.predicted, p.SetSize, p.Tau, in.clsGroup, core.ClassifierOptions{
		Rng: clsRng, Parallelism: p.Parallelism, Lockstep: true,
	})
	calls := time.Since(t0)
	if err != nil {
		return bareOutcome{}, 0, fmt.Errorf("classifier: %w", err)
	}
	out := bareOutcome{
		scan:    marshal(server.ResultFromMultiple(mr, core.BudgetSpent{})),
		cls:     marshal(server.ResultFromClassifier(cr, core.BudgetSpent{})),
		covered: cr.Covered,
		hits:    r.scanP.Ledger().TotalHITs() + r.clsP.Ledger().TotalHITs(),
	}
	for _, g := range mr.Results {
		if !g.Covered {
			out.uncovered = append(out.uncovered, g.Group.Name)
		}
	}
	return out, calls, nil
}

// runAuditBare: one Multiple-Coverage scan plus one Classifier-Coverage
// audit per iteration, straight into the platform. A job is one such
// pair.
func runAuditBare(cfg config) (*report, error) {
	return auditBare(cfg, defaultBareParams())
}

type bareSetup struct {
	in *bareInputs
	r  *bareRig
}

func auditBare(cfg config, p bareParams) (*report, error) {
	rep := &report{metrics: newMetrics()}
	// Set-up: the datasets and the platforms with warm glyphs.
	su, setupS, err := setUp(func() (bareSetup, error) {
		in, err := newBareInputs(p, cfg.seed)
		if err != nil {
			return bareSetup{}, err
		}
		r, err := in.rig()
		if err != nil {
			return bareSetup{}, err
		}
		return bareSetup{in, r}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	in, r := su.in, su.r
	// The reference audit pair, on the set-up's platforms, is also the
	// run's untimed warm-up iteration. It is not part of setup_s: it is
	// the audit that hits_per_s measures.
	ref, _, err := in.audit(r, nil)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	rep.check(in.planted(ref))

	var (
		plain, traced window
		sp            span
		auditTime     time.Duration // traced iterations' audit calls
	)
	for i := 0; !measured(cfg, i, 1, plain, traced); i++ {
		if r, err = in.rig(); err != nil {
			return nil, err
		}
		w, s := &plain, (*span)(nil)
		if tracedJob(cfg, i, 1) {
			w, s = &traced, &sp
		}
		var (
			out   bareOutcome
			calls time.Duration
		)
		err := w.timed(func() (err error) {
			out, calls, err = in.audit(r, s)
			return err
		})
		if err != nil {
			return nil, err
		}
		if s != nil {
			auditTime += calls
		}
		w.hits += out.hits
		w.jobs++
		rep.check(errors.Join(out.equal(ref), in.planted(out)))
	}

	if !cfg.trace {
		// The live heap with the last iteration's platforms still held.
		heap := liveHeapMB()
		runtime.KeepAlive(r)
		plain.endToEnd(rep.metrics, setupS, heap)
		return rep.finish(), nil
	}
	m := rep.metrics
	hits := float64(traced.hits)
	platform := sp.total()
	audits := float64(2 * traced.jobs)
	m["lockstep.rounds"] = float64(sp.calls) / audits
	m["lockstep.hits_per_round"] = float64(sp.setReqs+sp.points) / float64(sp.calls)
	m["lockstep.self_ns_per_hit"] = float64(auditTime-platform) / hits
	m["platform.set_ns_per_hit"] = float64(sp.setTime) / float64(sp.setReqs)
	m["platform.point_ns_per_hit"] = float64(sp.ptTime) / float64(sp.points)
	m["platform.busy_share"] = float64(platform) / float64(auditTime)
	m["trace.overhead_ratio"] = (hits / traced.elapsed.Seconds()) / (float64(plain.hits) / plain.elapsed.Seconds())
	// The audit calls are the outermost spans; whatever else the timed
	// window holds (serializing results, reading ledgers) is
	// unattributed.
	m["trace.unattributed_share"] = 1 - float64(auditTime)/float64(traced.elapsed)
	return rep.finish(), nil
}

// ---- audit-stacked --------------------------------------------------

// stackedParams shape audit-stacked: a Multiple-Coverage audit through
// cache -> trust -> journal -> governor -> platform on a crowd with
// lazy-yes adversaries.
type stackedParams struct {
	N, Tau, SetSize int
	Minorities      []int
	PoolSize        int
	AdversaryRate   float64
	Probes          int
	Parallelism     int
	DSIterations    int
}

func defaultStackedParams() stackedParams {
	return stackedParams{
		N: 5_000, Tau: 50, SetSize: 10, Minorities: []int{30, 28, 26}, PoolSize: 30,
		AdversaryRate: 0.3, Probes: 16, Parallelism: 2, DSIterations: 50,
	}
}

// stackedInputs are one seed's dataset and gold-probe battery.
type stackedInputs struct {
	p      stackedParams
	seed   int64
	dir    string
	d      *dataset.Dataset
	ids    []dataset.ObjectID
	groups []pattern.Group
	probes []core.GoldProbe
	// maxHITs is the governor's cap, twice the reference audit's need,
	// so it charges every HIT and refuses none; 0 (the reference run
	// itself) counts without a cap.
	maxHITs int
}

func newStackedInputs(p stackedParams, seed int64, dir string) (*stackedInputs, error) {
	d, groups, err := minorityDataset(p.N, p.Minorities, seed)
	if err != nil {
		return nil, err
	}
	return &stackedInputs{
		p: p, seed: seed, dir: dir, d: d, ids: d.IDs(), groups: groups,
		probes: core.GoldProbes(d, groups, p.Probes, seed+99),
	}, nil
}

// stackSpans are the shims' spans of one stack, top to bottom: each is
// the inclusive time of the named layer.
type stackSpans struct {
	cache, trust, journal, governor, platform span
}

// stack is one assembled oracle stack and handles on its layers.
type stack struct {
	top   core.Oracle
	cache *core.CachingOracle
	trust *core.TrustOracle
	jo    *core.JournalingOracle
	gov   *core.BudgetedOracle
}

// platform builds a fresh identically seeded adversarial crowd.
func (in *stackedInputs) platform(log *crowd.ResponseLog) (*crowd.Platform, error) {
	return quietPlatform(in.d, in.p.PoolSize, in.seed+7, func(c *crowd.Config) {
		c.Adversary = crowd.AdversaryConfig{Rate: in.p.AdversaryRate, Strategy: crowd.LazyYes{}}
		c.Responses = log
	})
}

// build assembles cache -> trust -> journal -> governor -> platform over
// p, replaying replay first; with sp set, a shim sits above every layer.
func (in *stackedInputs) build(p *crowd.Platform, log *crowd.ResponseLog, jnl core.RoundJournal,
	replay []core.RoundRecord, sp *stackSpans) (*stack, error) {
	traced := sp != nil
	if !traced {
		sp = &stackSpans{} // addresses only; never written
	}
	wrap := func(o core.Oracle, s *span) core.Oracle {
		if !traced {
			return o
		}
		return newShim(o, in.p.Parallelism, s)
	}
	st := &stack{}
	st.gov = core.NewBudgetedOracle(wrap(p, &sp.platform), core.Budget{MaxHITs: in.maxHITs, Cost: p.HITCost()})
	st.jo = core.NewJournalingOracle(wrap(st.gov, &sp.governor), jnl, replay, st.gov)
	tr, err := core.NewTrustOracle(wrap(st.jo, &sp.journal), core.TrustConfig{
		Probes: in.probes, Feed: log, Screen: p,
	})
	if err != nil {
		return nil, err
	}
	st.trust = tr
	st.cache = core.NewCachingOracle(wrap(tr, &sp.trust))
	st.top = wrap(st.cache, &sp.cache)
	return st, nil
}

// audit runs the Multiple-Coverage audit through the stack.
func (in *stackedInputs) audit(st *stack) (*core.MultipleResult, error) {
	return core.MultipleCoverage(st.top, in.ids, in.p.SetSize, in.p.Tau, in.groups, core.MultipleOptions{
		Rng: rand.New(rand.NewSource(in.seed + 11)), Parallelism: in.p.Parallelism, Lockstep: true,
	})
}

// stackedOutcome is what one iteration committed.
type stackedOutcome struct {
	live, resumed []byte // serialized results, governor spend included
	hits          int    // platform HITs of the live audit, probes included
	rounds        int
	replayed      int
	resumedHITs   int // platform HITs the resume posted (must be 0)
	truth         [32]byte
	journalSum    [32]byte
	journalBytes  int64
	probes        int
	excluded      int
	denied        int
	responses     int
	cacheHitRatio float64
	replayHITs    int // HITs answered from the journal
}

func (o stackedOutcome) equal(ref stackedOutcome) error {
	switch {
	case !bytes.Equal(o.live, ref.live):
		return fmt.Errorf("live result %s, reference %s", o.live, ref.live)
	case o.hits != ref.hits:
		return fmt.Errorf("%d HITs committed, reference %d", o.hits, ref.hits)
	case o.truth != ref.truth:
		return errors.New("Dawid-Skene truth differs from the reference")
	case o.journalSum != ref.journalSum:
		return errors.New("journal bytes differ from the reference")
	}
	return o.resumeMatches()
}

// resumeMatches checks the resumed audit against its own live run: the
// same bytes, every round replayed, nothing posted to the crowd.
func (o stackedOutcome) resumeMatches() error {
	switch {
	case !bytes.Equal(o.resumed, o.live):
		return fmt.Errorf("resumed result %s, live %s", o.resumed, o.live)
	case o.replayed != o.rounds:
		return fmt.Errorf("resume replayed %d of %d rounds", o.replayed, o.rounds)
	case o.resumedHITs != 0:
		return fmt.Errorf("resume posted %d HITs", o.resumedHITs)
	}
	return nil
}

// stackedTimes are the spans of one iteration's timed window.
type stackedTimes struct {
	live, ds, open, resume time.Duration
	appends                []time.Duration
}

// stackedRig is one iteration's fresh platforms and journal, built
// outside the timed window.
type stackedRig struct {
	p, p2     *crowd.Platform
	log, log2 *crowd.ResponseLog
	path      string
	jnl       *journal.Journal
}

func (in *stackedInputs) rig(i int) (*stackedRig, error) {
	r := &stackedRig{log: &crowd.ResponseLog{}, log2: &crowd.ResponseLog{}}
	var err error
	if r.p, err = in.platform(r.log); err != nil {
		return nil, err
	}
	if r.p2, err = in.platform(r.log2); err != nil {
		return nil, err
	}
	r.path = filepath.Join(in.dir, fmt.Sprintf("audit-%d.jnl", i))
	if r.jnl, err = journal.Create(r.path); err != nil {
		return nil, err
	}
	return r, nil
}

// iterate is one job: the live audit, Dawid-Skene over its responses,
// then a resume of the finished audit from its journal in a fresh stack
// on a fresh identically seeded platform. With live and resume set,
// every layer is traced into them.
func (in *stackedInputs) iterate(r *stackedRig, live, resume *stackSpans) (stackedOutcome, stackedTimes, error) {
	var (
		out stackedOutcome
		tm  stackedTimes
	)
	var jnl core.RoundJournal = r.jnl
	tj := &timedJournal{inner: r.jnl}
	if live != nil {
		jnl = tj
	}
	st, err := in.build(r.p, r.log, jnl, nil, live)
	if err != nil {
		r.jnl.Close()
		return out, tm, err
	}
	t0 := time.Now()
	res, err := in.audit(st)
	tm.live = time.Since(t0)
	if cerr := r.jnl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, tm, fmt.Errorf("live audit: %w", err)
	}
	tm.appends = tj.appends
	out.live = marshal(server.ResultFromMultiple(res, st.gov.Spent()))
	out.hits = r.p.Ledger().TotalHITs()
	out.rounds = st.jo.Rounds()
	rep := st.trust.Report()
	out.probes, out.excluded = rep.ProbesIssued, rep.Excluded
	out.denied = st.gov.Spent().Denied
	out.cacheHitRatio = st.cache.Stats().HitRate()

	t0 = time.Now()
	responses := r.log.Responses()
	dres, err := crowd.DawidSkene(r.log.HITs(), r.p.PoolSize(), 2, responses, in.p.DSIterations)
	tm.ds = time.Since(t0)
	if err != nil {
		return out, tm, fmt.Errorf("dawid-skene: %w", err)
	}
	out.truth = sha256.Sum256(marshal(dres.Truth))
	out.responses = len(responses)

	t0 = time.Now()
	jnl2, recs, err := journal.Open(r.path)
	tm.open = time.Since(t0)
	if err != nil {
		return out, tm, err
	}
	st2, err := in.build(r.p2, r.log2, jnl2, recs, resume)
	if err != nil {
		jnl2.Close()
		return out, tm, err
	}
	t0 = time.Now()
	res2, err := in.audit(st2)
	tm.resume = time.Since(t0)
	if cerr := jnl2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, tm, fmt.Errorf("resumed audit: %w", err)
	}
	out.resumed = marshal(server.ResultFromMultiple(res2, st2.gov.Spent()))
	out.replayed = st2.jo.Replayed()
	out.resumedHITs = r.p2.Ledger().TotalHITs()
	for _, rec := range recs {
		out.replayHITs += len(rec.SetAnswers) + len(rec.PointAnswers)
	}
	return out, tm, nil
}

// runAuditStacked: a live audit through the full middleware stack with
// an fsynced journal, Dawid-Skene over its responses, and a resume from
// the journal per iteration. A job is one such iteration.
func runAuditStacked(cfg config) (*report, error) {
	return auditStacked(cfg, defaultStackedParams())
}

// stackedVariants is how many datasets, derived from the run's seed,
// the jobs of audit-stacked cycle through. One audit's plan, and with it
// its rounds and HITs, depends on which minorities its sampling phase
// happens to see, which varies by a quarter from seed to seed; a run
// measures whole cycles, so that variation averages out of its figures.
const stackedVariants = 8

type stackedSetup struct {
	ins  []*stackedInputs
	rigs []*stackedRig
}

// discard closes and removes the journal files of a set-up that no job
// will use.
func (su stackedSetup) discard() {
	for _, r := range su.rigs {
		r.jnl.Close()
		os.Remove(r.path)
	}
}

func auditStacked(cfg config, p stackedParams) (*report, error) {
	rep := &report{metrics: newMetrics()}
	iter := 0
	// retire hashes and removes an iteration's journal file.
	retire := func(r *stackedRig, out *stackedOutcome) error {
		sum, size, err := hashFile(r.path)
		if err != nil {
			return err
		}
		out.journalSum, out.journalBytes = sum, size
		return os.Remove(r.path)
	}
	// Set-up: per variant, the dataset, the gold probes, both platforms
	// and the journal file.
	su, setupS, err := setUp(func() (stackedSetup, error) {
		var su stackedSetup
		for v := 0; v < stackedVariants; v++ {
			in, err := newStackedInputs(p, cfg.seed*stackedVariants+int64(v), cfg.dir)
			if err != nil {
				su.discard()
				return stackedSetup{}, err
			}
			r, err := in.rig(iter)
			iter++
			if err != nil {
				su.discard()
				return stackedSetup{}, err
			}
			su.ins, su.rigs = append(su.ins, in), append(su.rigs, r)
		}
		return su, nil
	}, stackedSetup.discard)
	if err != nil {
		return nil, err
	}
	// Per variant, the reference job on the set-up's rig, run with an
	// uncapped governor to learn the audit's need. The references are
	// also the run's untimed warm-up cycle. They are not part of
	// setup_s: they are the jobs that hits_per_s measures.
	refs := make([]stackedOutcome, stackedVariants)
	for v, in := range su.ins {
		ref, _, err := in.iterate(su.rigs[v], nil, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %d: %w", v, err)
		}
		if err := retire(su.rigs[v], &ref); err != nil {
			return nil, err
		}
		in.maxHITs = 2 * ref.hits
		refs[v] = ref
		rep.check(ref.resumeMatches())
	}

	var (
		plain, traced window
		live, resume  stackSpans
		tm            stackedTimes
		outs          []stackedOutcome
		r             *stackedRig
	)
	for i := 0; !measured(cfg, i, stackedVariants, plain, traced); i++ {
		in, ref := su.ins[i%stackedVariants], refs[i%stackedVariants]
		r, err = in.rig(iter)
		iter++
		if err != nil {
			return nil, err
		}
		w := &plain
		var ls, rs *stackSpans
		if tracedJob(cfg, i, stackedVariants) {
			w, ls, rs = &traced, &live, &resume
		}
		var (
			out stackedOutcome
			t   stackedTimes
		)
		err := w.timed(func() (err error) {
			out, t, err = in.iterate(r, ls, rs)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := retire(r, &out); err != nil {
			return nil, err
		}
		w.hits += out.hits
		w.jobs++
		if ls != nil {
			tm.live += t.live
			tm.ds += t.ds
			tm.open += t.open
			tm.resume += t.resume
			tm.appends = append(tm.appends, t.appends...)
			outs = append(outs, out)
		}
		err = out.equal(ref)
		if err == nil && out.denied != 0 {
			err = fmt.Errorf("governor refused %d HITs under a cap of twice the need", out.denied)
		}
		rep.check(err)
	}

	if !cfg.trace {
		// The live heap with the last iteration's platforms still held.
		heap := liveHeapMB()
		runtime.KeepAlive(r)
		plain.endToEnd(rep.metrics, setupS, heap)
		return rep.finish(), nil
	}
	stackedLayers(rep.metrics, &live, &resume, tm, outs, traced, plain)
	return rep.finish(), nil
}

// stackedLayers fills the per-layer metrics of a traced audit-stacked
// run.
func stackedLayers(m map[string]float64, live, resume *stackSpans, tm stackedTimes,
	outs []stackedOutcome, traced, plain window) {
	hits := float64(traced.hits)
	audits := float64(len(outs))
	var rounds, replayHITs, probes, excluded, denied, responses, jbytes float64
	var hitRatio float64
	for _, o := range outs {
		rounds += float64(o.rounds)
		replayHITs += float64(o.replayHITs)
		probes += float64(o.probes)
		excluded += float64(o.excluded)
		denied += float64(o.denied)
		responses += float64(o.responses)
		jbytes += float64(o.journalBytes - int64(len("CVGJNL01")))
		hitRatio += o.cacheHitRatio
	}
	cache, trust, jnl, gov, plat := live.cache.total(), live.trust.total(), live.journal.total(),
		live.governor.total(), live.platform.total()
	ns := func(d time.Duration) float64 { return float64(d) }

	m["lockstep.rounds"] = float64(live.cache.calls) / audits
	m["lockstep.hits_per_round"] = float64(live.cache.setReqs+live.cache.points) / float64(live.cache.calls)
	m["lockstep.self_ns_per_hit"] = ns(tm.live-cache) / hits
	m["platform.set_ns_per_hit"] = ns(live.platform.setTime) / float64(live.platform.setReqs)
	m["platform.point_ns_per_hit"] = ns(live.platform.ptTime) / float64(live.platform.points)
	m["platform.busy_share"] = ns(plat) / ns(tm.live)
	m["cache.self_ns_per_hit"] = ns(cache-trust) / hits
	m["cache.hit_ratio"] = hitRatio / audits
	m["trust.self_ns_per_round"] = ns(trust-jnl) / float64(live.trust.calls)
	m["trust.probe_share"] = probes / hits
	m["trust.excluded_workers"] = excluded / audits
	m["governor.self_ns_per_hit"] = ns(gov-plat) / hits
	m["governor.refused"] = denied
	us := make([]float64, len(tm.appends))
	for i, d := range tm.appends {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	m["journal.append_us_p50"] = stat.Median(us)
	if v, ok := stat.Percentile(us, 0.99); ok {
		m["journal.append_us_p99"] = v
	} else {
		m["journal.append_us_p99"] = notObserved
	}
	m["journal.bytes_per_round"] = jbytes / rounds
	m["journal.self_ns_per_round"] = ns(jnl-gov) / float64(live.journal.calls)
	m["journal.open_ms"] = ns(tm.open) / float64(time.Millisecond) / audits
	m["journal.replay_ns_per_round"] = ns(resume.journal.total()-resume.governor.total()) / rounds
	m["journal.replay_hits_per_s"] = replayHITs / (tm.open + tm.resume).Seconds()
	m["dawidskene.ms_per_audit"] = ns(tm.ds) / float64(time.Millisecond) / audits
	m["dawidskene.ns_per_response"] = ns(tm.ds) / responses
	m["trace.overhead_ratio"] = (hits / traced.elapsed.Seconds()) / (float64(plain.hits) / plain.elapsed.Seconds())
	m["trace.unattributed_share"] = 1 - ns(tm.live+tm.ds+tm.open+tm.resume)/ns(traced.elapsed)
}
