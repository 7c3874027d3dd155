package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"imagecvg/internal/core"
	"imagecvg/internal/journal"
)

// Engine errors.
var (
	// ErrNotFound marks an unknown job id.
	ErrNotFound = errors.New("server: no such job")
	// ErrClosed marks a submit to a closed engine.
	ErrClosed = errors.New("server: engine closed")
	// ErrTenantBudget marks a submit the tenant's budget cannot admit.
	ErrTenantBudget = errors.New("server: tenant budget exhausted")
	// ErrInvalidConfig marks a malformed submission (decode or
	// validation failure); the HTTP layer maps it to 400.
	ErrInvalidConfig = errors.New("server: invalid job config")
)

// Options configures an Engine.
type Options struct {
	// DataDir holds one <id>.job.json meta and one <id>.jnl round
	// journal per job; an engine restarted over the same directory
	// recovers every job and resumes the non-terminal ones.
	DataDir string
	// Workers bounds how many jobs run concurrently (default 4); the
	// pool is one core.RunBounded worker set shared by every job.
	Workers int
	// TenantMaxHITs and TenantMaxSpend cap each tenant's committed
	// crowd tasks across all its jobs; 0 disables a cap. Admission
	// clamps a job's budget to the tenant's remaining headroom at
	// submit, reserves the clamped caps until the job terminates (so
	// concurrently submitted jobs split the headroom instead of each
	// taking all of it), and persists the effective caps with the job.
	TenantMaxHITs  int
	TenantMaxSpend float64
	// CrashAfterRounds, when positive, cancels every running job after
	// its N-th live committed round — fault injection for the
	// kill/restart conformance suite. The cancelled job parks
	// non-terminal (like a process kill at a round boundary) and
	// resumes on the next engine start. Production servers leave it 0.
	CrashAfterRounds int
}

// tenantSpent is one tenant's budget ledger: consumption folded from
// terminal jobs plus the admitted caps of live (queued, running or
// parked) jobs, reserved at admission so concurrent submissions
// cannot each be clamped to the full remaining headroom and
// over-commit the tenant's caps.
type tenantSpent struct {
	hits     int
	spend    float64
	resHITs  int
	resSpend float64
}

// job is the engine-side runtime state of one audit job.
type job struct {
	id   string
	cfg  JobConfig
	caps BudgetCaps

	mu         sync.Mutex
	state      JobState
	errMsg     string
	result     *JobResult
	rounds     int
	replayed   int
	spent      core.BudgetSpent
	resume     bool // journal on disk; Open it instead of Create
	parked     bool // interrupted mid-run; waits for an engine restart
	finished   bool
	userCancel bool
	cancel     context.CancelFunc
	subs       map[int]chan Event
	nextSub    int
	done       chan struct{}
}

// statusLocked snapshots the job; callers hold j.mu.
func (j *job) statusLocked() JobStatus {
	return JobStatus{
		ID:       j.id,
		Tenant:   j.cfg.Tenant,
		Mode:     j.cfg.Mode,
		State:    j.state,
		Budget:   j.caps,
		Rounds:   j.rounds,
		Replayed: j.replayed,
		Spent:    j.spent,
		Result:   j.result,
		Error:    j.errMsg,
	}
}

// metaLocked builds the persisted form; callers hold j.mu.
func (j *job) metaLocked() jobMeta {
	return jobMeta{
		ID:       j.id,
		Config:   j.cfg,
		Budget:   j.caps,
		State:    j.state,
		Error:    j.errMsg,
		Result:   j.result,
		Rounds:   j.rounds,
		Replayed: j.replayed,
	}
}

// Engine is the audit job engine: submit, observe, cancel and resume
// persistent audit jobs over one shared bounded worker pool. Safe for
// concurrent use.
type Engine struct {
	opts       Options
	baseCtx    context.Context
	baseCancel context.CancelFunc
	closedCh   chan struct{}
	wg         sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	order   []string
	pending []*job
	nextID  int
	closed  bool
	tenants map[string]*tenantSpent
}

// NewEngine opens (or creates) the data directory, recovers every
// persisted job — terminal jobs as records, non-terminal jobs
// re-queued for resumption in id order — and starts the worker pool.
func NewEngine(opts Options) (*Engine, error) {
	if opts.DataDir == "" {
		return nil, errors.New("server: data directory required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:       opts,
		baseCtx:    ctx,
		baseCancel: cancel,
		closedCh:   make(chan struct{}),
		jobs:       make(map[string]*job),
		tenants:    make(map[string]*tenantSpent),
	}
	e.cond = sync.NewCond(&e.mu)
	if err := e.recover(); err != nil {
		cancel()
		return nil, err
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		// The pool the ISSUE's worker model names: Workers long-lived
		// workers over one bounded scheduler, each draining the pending
		// queue until the engine closes.
		_ = core.RunBounded(opts.Workers, opts.Workers, func(int) error {
			for {
				j := e.next()
				if j == nil {
					return nil
				}
				e.runJob(j)
			}
		})
	}()
	return e, nil
}

// recover scans the data directory for persisted jobs.
func (e *Engine) recover() error {
	entries, err := os.ReadDir(e.opts.DataDir)
	if err != nil {
		return fmt.Errorf("server: scan data dir: %w", err)
	}
	var metaFiles []string
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".job.json") {
			metaFiles = append(metaFiles, ent.Name())
		}
	}
	sort.Strings(metaFiles) // id order: resumption is deterministic
	for _, name := range metaFiles {
		data, err := os.ReadFile(filepath.Join(e.opts.DataDir, name))
		if err != nil {
			return fmt.Errorf("server: read job meta %s: %w", name, err)
		}
		var meta jobMeta
		if err := unmarshalStrict(data, &meta); err != nil {
			return fmt.Errorf("server: decode job meta %s: %w", name, err)
		}
		if meta.ID == "" || meta.ID+".job.json" != name {
			return fmt.Errorf("server: job meta %s names id %q", name, meta.ID)
		}
		var n int
		if _, err := fmt.Sscanf(meta.ID, "job-%06d", &n); err == nil && n >= e.nextID {
			e.nextID = n + 1
		}
		j := &job{
			id:       meta.ID,
			cfg:      meta.Config,
			caps:     meta.Budget,
			state:    meta.State,
			errMsg:   meta.Error,
			result:   meta.Result,
			rounds:   meta.Rounds,
			replayed: meta.Replayed,
			subs:     make(map[int]chan Event),
			done:     make(chan struct{}),
		}
		if meta.Result != nil {
			j.spent = meta.Result.Spent
		}
		if j.state.Terminal() {
			close(j.done)
			e.foldTenantLocked(j)
		} else {
			// Interrupted or never started: re-queue. An existing
			// journal makes the run a resume; its length gives the
			// status view something truthful to show before the job is
			// re-scheduled.
			j.state = StateQueued
			jnlPath := filepath.Join(e.opts.DataDir, j.id+".jnl")
			if _, err := os.Stat(jnlPath); err == nil {
				j.resume = true
				if recs, lerr := journal.Load(jnlPath); lerr != nil {
					j.state = StateFailed
					j.errMsg = fmt.Sprintf("recover journal: %v", lerr)
					j.finished = true
					close(j.done)
				} else if len(recs) > 0 {
					j.rounds = len(recs)
					j.spent = recs[len(recs)-1].Spent
				}
			}
			if !j.state.Terminal() {
				e.reserveTenantLocked(j)
				e.pending = append(e.pending, j)
			}
		}
		e.jobs[j.id] = j
		e.order = append(e.order, j.id)
	}
	return nil
}

// foldTenantLocked adds a terminal job's committed consumption to its
// tenant's ledger; callers hold e.mu or run before the engine is
// shared.
func (e *Engine) foldTenantLocked(j *job) {
	t := e.tenantLocked(j.cfg.Tenant)
	t.hits += j.spent.HITs()
	t.spend += j.spent.Spend
}

// tenantLocked returns (creating if needed) a tenant's ledger;
// callers hold e.mu or run before the engine is shared.
func (e *Engine) tenantLocked(tenant string) *tenantSpent {
	t := e.tenants[tenant]
	if t == nil {
		t = &tenantSpent{}
		e.tenants[tenant] = t
	}
	return t
}

// reserveTenantLocked holds a live job's admitted caps against its
// tenant's headroom, so later admissions see the committed-but-not-
// yet-folded budget; callers hold e.mu or run before the engine is
// shared. finish releases the reservation when the job's actual
// consumption folds.
func (e *Engine) reserveTenantLocked(j *job) {
	t := e.tenantLocked(j.cfg.Tenant)
	t.resHITs += j.caps.MaxHITs
	t.resSpend += j.caps.MaxSpend
}

// releaseTenantLocked drops a terminal job's reservation; callers
// hold e.mu.
func (e *Engine) releaseTenantLocked(j *job) {
	if t := e.tenants[j.cfg.Tenant]; t != nil {
		t.resHITs -= j.caps.MaxHITs
		t.resSpend -= j.caps.MaxSpend
	}
}

// Submit validates, persists and enqueues a job, returning its id.
// The job's budget caps are clamped to the tenant's remaining
// headroom here, reserved against the tenant until the job
// terminates, and persisted, so a later resume runs under the same
// effective budget.
func (e *Engine) Submit(cfg JobConfig) (string, error) {
	if err := cfg.normalize(); err != nil {
		return "", err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return "", ErrClosed
	}
	caps, err := e.admitLocked(cfg)
	if err != nil {
		return "", err
	}
	id := fmt.Sprintf("job-%06d", e.nextID)
	j := &job{
		id:    id,
		cfg:   cfg,
		caps:  caps,
		state: StateQueued,
		subs:  make(map[int]chan Event),
		done:  make(chan struct{}),
	}
	if err := e.writeMeta(j.metaLocked()); err != nil {
		return "", err
	}
	e.nextID++
	e.jobs[id] = j
	e.order = append(e.order, id)
	e.reserveTenantLocked(j)
	e.pending = append(e.pending, j)
	e.cond.Signal()
	return id, nil
}

// admitLocked resolves a submission's effective budget under the
// tenant caps; callers hold e.mu. Headroom is what the caps leave
// after both the folded consumption of terminal jobs and the
// reserved caps of live ones — so N concurrent submissions split the
// tenant's budget instead of each being clamped to all of it.
func (e *Engine) admitLocked(cfg JobConfig) (BudgetCaps, error) {
	caps := BudgetCaps{MaxHITs: cfg.MaxHITs, MaxSpend: cfg.MaxSpend}
	t := e.tenants[cfg.Tenant]
	if t == nil {
		t = &tenantSpent{}
	}
	if e.opts.TenantMaxHITs > 0 {
		remaining := e.opts.TenantMaxHITs - t.hits - t.resHITs
		if remaining <= 0 {
			return BudgetCaps{}, fmt.Errorf("%w: tenant %q holds %d spent + %d reserved of %d HITs",
				ErrTenantBudget, cfg.Tenant, t.hits, t.resHITs, e.opts.TenantMaxHITs)
		}
		if caps.MaxHITs == 0 || caps.MaxHITs > remaining {
			caps.MaxHITs = remaining
		}
	}
	if e.opts.TenantMaxSpend > 0 {
		remaining := e.opts.TenantMaxSpend - t.spend - t.resSpend
		if remaining <= 0 {
			return BudgetCaps{}, fmt.Errorf("%w: tenant %q holds %.2f spent + %.2f reserved of %.2f",
				ErrTenantBudget, cfg.Tenant, t.spend, t.resSpend, e.opts.TenantMaxSpend)
		}
		if caps.MaxSpend == 0 || caps.MaxSpend > remaining {
			caps.MaxSpend = remaining
		}
	}
	return caps, nil
}

// next blocks until a job is pending or the engine closes.
func (e *Engine) next() *job {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.closed {
			return nil
		}
		if len(e.pending) > 0 {
			j := e.pending[0]
			e.pending = e.pending[1:]
			return j
		}
		e.cond.Wait()
	}
}

// runJob drives one job from queued to a terminal state — or parks it
// non-terminal when the run is interrupted (engine shutdown or crash
// injection), which is what a process kill looks like after restart.
func (e *Engine) runJob(j *job) {
	ctx, cancel := context.WithCancel(e.baseCtx)
	j.mu.Lock()
	if j.userCancel {
		j.mu.Unlock()
		cancel()
		e.finish(j, StateCancelled, nil, nil)
		return
	}
	j.state = StateRunning
	j.parked = false
	j.cancel = cancel
	j.mu.Unlock()
	e.publish(j, Event{Type: "state", State: StateRunning})

	res, err := e.runAudit(ctx, j)
	cancel()
	j.mu.Lock()
	j.cancel = nil
	user := j.userCancel
	j.mu.Unlock()

	switch {
	case err == nil:
		e.finish(j, StateDone, res, nil)
	case errors.Is(err, context.Canceled) && user:
		e.finish(j, StateCancelled, nil, nil)
	case errors.Is(err, context.Canceled):
		// Interrupted at a round boundary without a user cancel: the
		// meta stays non-terminal on disk, so the next engine start
		// resumes the job from its journal. In this process it parks.
		j.mu.Lock()
		j.state = StateQueued
		j.parked = true
		j.resume = true
		j.mu.Unlock()
		e.publish(j, Event{Type: "state", State: StateQueued})
	default:
		e.finish(j, StateFailed, nil, err)
	}
}

// finish moves a job to a terminal state exactly once: persist the
// meta, fold the tenant ledger, publish the final event and release
// the job's subscribers.
func (e *Engine) finish(j *job, state JobState, res *JobResult, err error) {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.finished = true
	j.state = state
	j.result = res
	if err != nil {
		j.errMsg = err.Error()
	}
	if res != nil {
		j.spent = res.Spent
	}
	meta := j.metaLocked()
	j.mu.Unlock()

	if werr := e.writeMeta(meta); werr != nil {
		// The in-memory outcome stands; record that it did not persist
		// (a restart will re-run the job from its journal).
		j.mu.Lock()
		if j.errMsg == "" {
			j.errMsg = fmt.Sprintf("persist job meta: %v", werr)
		}
		j.mu.Unlock()
	}
	e.mu.Lock()
	e.releaseTenantLocked(j)
	e.foldTenantLocked(j)
	e.mu.Unlock()

	ev := Event{Type: "state", State: state}
	if err != nil {
		ev.Error = err.Error()
	}
	j.mu.Lock()
	subs := j.subs
	j.subs = nil
	//lint:ordered each subscriber channel gets its own send and close; none observes another's order
	for _, ch := range subs {
		// The terminal event is never dropped: a full buffer gives up
		// its oldest progress event instead. Only finish and publish
		// send, both under j.mu, so the send below cannot block.
		select {
		case ch <- ev:
		default:
			select {
			case <-ch:
			default:
			}
			ch <- ev
		}
		close(ch)
	}
	close(j.done)
	j.mu.Unlock()
}

// writeMeta persists a job meta atomically (temp file + rename,
// fsynced before the swap, the directory fsynced after it).
func (e *Engine) writeMeta(meta jobMeta) error {
	data, err := marshalMeta(meta)
	if err != nil {
		return fmt.Errorf("server: encode job meta: %w", err)
	}
	f, err := os.CreateTemp(e.opts.DataDir, meta.ID+".tmp-*")
	if err != nil {
		return fmt.Errorf("server: job meta temp: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(e.opts.DataDir, meta.ID+".job.json"))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: persist job meta: %w", err)
	}
	if err := journal.SyncDir(e.opts.DataDir); err != nil {
		return fmt.Errorf("server: sync data dir after job meta: %w", err)
	}
	return nil
}

// Status returns a job's snapshot.
func (e *Engine) Status(id string) (JobStatus, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), nil
}

// List returns every job's snapshot in submission (id) order.
func (e *Engine) List() []JobStatus {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, e.jobs[id])
	}
	e.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		out = append(out, j.statusLocked())
		j.mu.Unlock()
	}
	return out
}

// Cancel requests a job's cancellation. A queued job cancels
// immediately; a running job's context is cancelled, which fails its
// next round before it reaches the oracle — every round either
// committed (and journaled) or never happened. Cancelling a terminal
// job is a no-op.
func (e *Engine) Cancel(id string) error {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return ErrNotFound
	}
	// Remove from the pending queue if still there, so the job never
	// starts; parked (interrupted) jobs are likewise finished directly.
	dequeued := false
	for i, p := range e.pending {
		if p == j {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			dequeued = true
			break
		}
	}
	e.mu.Unlock()

	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return nil
	}
	j.userCancel = true
	parked := j.parked
	cancel := j.cancel
	j.mu.Unlock()

	if dequeued || parked {
		e.finish(j, StateCancelled, nil, nil)
	} else if cancel != nil {
		cancel()
	}
	// Otherwise a worker holds the job between dequeue and start;
	// runJob's first userCancel check finishes it.
	return nil
}

// Wait blocks until the job reaches a terminal state — or the engine
// closes, in which case the returned status may be non-terminal (an
// interrupted job parks for the next restart).
func (e *Engine) Wait(id string) (JobStatus, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-e.closedCh:
	}
	return e.Status(id)
}

// Subscribe attaches a progress listener to a job. The channel
// carries round and state events and is closed after the terminal
// state event; on an already-terminal job it is closed immediately.
// The returned func detaches the listener.
func (e *Engine) Subscribe(id string) (<-chan Event, func(), error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 64)
	if j.subs == nil || j.state.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	key := j.nextSub
	j.nextSub++
	j.subs[key] = ch
	unsub := func() {
		j.mu.Lock()
		if j.subs != nil {
			delete(j.subs, key)
		}
		j.mu.Unlock()
	}
	return ch, unsub, nil
}

// publish fans an event out to a job's subscribers without blocking:
// a full subscriber buffer drops the event (progress is advisory; the
// terminal state event and the channel close are finish's).
func (e *Engine) publish(j *job, ev Event) {
	j.mu.Lock()
	//lint:ordered non-blocking sends to distinct advisory channels; SSE ordering per subscriber is preserved
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// Close stops the engine: no new submissions, running jobs are
// cancelled at their next round boundary and park non-terminal (their
// journals resume them on the next engine start), and the worker pool
// drains before Close returns.
func (e *Engine) Close() error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.closedCh)
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	e.baseCancel()
	e.wg.Wait()
	return nil
}
