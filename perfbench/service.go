package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	imagecvg "imagecvg"
	"imagecvg/internal/server"
	"imagecvg/perfbench/internal/stat"
)

// serviceParams shape service-mixed: a closed loop of clients against
// the serve-mode HTTP API, cycling through a fixed set of job configs.
type serviceParams struct {
	Clients, Workers int
	// Parallelism is each job's audit engine width.
	Parallelism int
	// MinJobs is the fewest jobs a timed window completes (a multiple
	// of the cycle), so p95 has at least ten samples beyond it.
	MinJobs int
	// N, Minority, Tau and SetSize shape every job's dataset and audit;
	// ClsMinority, ClsTP and ClsFP the classifier jobs'.
	N, Minority, Tau, SetSize int
	ClsMinority, ClsTP, ClsFP int
}

func defaultServiceParams() serviceParams {
	return serviceParams{
		Clients: 2, Workers: 2, Parallelism: 2, MinJobs: 208,
		N: 2_000, Minority: 30, Tau: 25, SetSize: 15,
		ClsMinority: 60, ClsTP: 40, ClsFP: 4,
	}
}

// cycle is the number of distinct job configs the clients cycle
// through: half multiple/crowd with a governing max_hits, a quarter
// classifier/crowd, a quarter intersectional/truth.
const cycle = 16

// tenantCap is each tenant's HIT cap: set, so admission clamps and
// reserves every job's budget, but far above what a run spends.
const tenantCap = 1 << 40

// serviceJob is one config of the cycle and its one-shot reference.
type serviceJob struct {
	cfg server.JobConfig
	ref []byte // the serialized JobResult the service must return
}

// serviceJobs derives the cycle's configs from seed and computes each
// one's reference through the one-shot Auditor. Every job's max_hits is
// twice its reference need, so its governor charges every HIT and
// refuses none, and admission reserves only that much of its tenant's
// cap (a job without max_hits would reserve the tenant's whole
// headroom and starve the next submission).
func serviceJobs(p serviceParams, seed int64) ([]serviceJob, error) {
	jobs := make([]serviceJob, cycle)
	for i := range jobs {
		s := seed*cycle + int64(i)
		cfg := server.JobConfig{
			Tenant:      []string{"tenant-a", "tenant-b"}[(i/2)%2],
			Dataset:     server.DatasetSpec{N: p.N, Minority: p.Minority, Seed: s},
			Tau:         p.Tau,
			SetSize:     p.SetSize,
			Seed:        s + 1,
			Parallelism: p.Parallelism,
		}
		switch i % 4 {
		case 0, 2:
			cfg.Mode, cfg.Oracle = server.ModeMultiple, "crowd"
		case 1:
			cfg.Mode, cfg.Oracle = server.ModeClassifier, "crowd"
			cfg.Dataset.Minority = p.ClsMinority
			cfg.ClassifierTP, cfg.ClassifierFP = p.ClsTP, p.ClsFP
		default:
			cfg.Mode, cfg.Oracle = server.ModeIntersectional, "truth"
		}
		res, err := oneShot(cfg)
		if err != nil {
			return nil, fmt.Errorf("reference %d: %w", i, err)
		}
		cfg.MaxHITs = 2 * res.Spent.HITs()
		jobs[i] = serviceJob{cfg: cfg, ref: marshal(res)}
	}
	return jobs, nil
}

// oneShot runs a job config through the root Auditor, as the serve-mode
// conformance suite does. Every serve job runs under a governor (the
// tenant cap makes its budget active), so the reference does too, with
// an uncapped-in-practice limit and the same cost model.
func oneShot(cfg server.JobConfig) (*server.JobResult, error) {
	ds, err := imagecvg.GenerateBinary(cfg.Dataset.N, cfg.Dataset.Minority, cfg.Dataset.Seed)
	if err != nil {
		return nil, err
	}
	schema := ds.Schema()
	var oracle imagecvg.Oracle = imagecvg.NewTruthOracle(ds)
	budget := imagecvg.Budget{MaxHITs: tenantCap}
	if cfg.Oracle == "crowd" {
		c, err := imagecvg.NewSimulatedCrowd(ds, cfg.Seed, imagecvg.CrowdOptions{})
		if err != nil {
			return nil, err
		}
		oracle, budget.Cost = c, c.HITCost()
	}
	a := imagecvg.NewAuditor(oracle, cfg.Tau, cfg.SetSize).
		WithSeed(cfg.Seed).WithParallelism(cfg.Parallelism).WithLockstep().WithBudget(budget)
	spent := func() imagecvg.BudgetSpent { s, _ := a.BudgetSpent(); return s }
	switch cfg.Mode {
	case server.ModeIntersectional:
		ir, err := a.AuditIntersectional(ds.IDs(), schema)
		if err != nil {
			return nil, err
		}
		return server.ResultFromIntersectional(ir, schema, spent()), nil
	case server.ModeClassifier:
		g := imagecvg.GroupsForAttribute(schema, 0)[1]
		cr, err := a.AuditWithClassifier(ds.IDs(), ds.PredictedSet(g, cfg.ClassifierTP, cfg.ClassifierFP), g)
		if err != nil {
			return nil, err
		}
		return server.ResultFromClassifier(cr, spent()), nil
	default:
		mr, err := a.AuditAttribute(ds.IDs(), schema, 0)
		if err != nil {
			return nil, err
		}
		return server.ResultFromMultiple(mr, spent()), nil
	}
}

// service is a running engine behind a loopback HTTP listener.
type service struct {
	dir  string
	eng  *server.Engine
	srv  *http.Server
	done chan struct{}
	base string
}

func startService(p serviceParams, dir string) (*service, error) {
	eng, err := server.NewEngine(server.Options{DataDir: dir, Workers: p.Workers, TenantMaxHITs: tenantCap})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &service{dir: dir, eng: eng, srv: &http.Server{Handler: eng.Handler()}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the listener down, waits for the server goroutine, then
// closes the engine.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // streams end with their jobs; nothing is in flight here
	<-s.done
	s.eng.Close()
}

// jobObs is what a client saw of one job. Times are milliseconds: job
// runs from sending the POST to the terminal event; submit is the POST
// round trip, queue runs from the 202 to the first sight of the job
// running and run from there to the terminal event; attach is the
// stream request's wait for its snapshot, and events the stream from
// the snapshot to the terminal event.
type jobObs struct {
	submit, queue, run, job, result     float64
	attach, events                      float64
	rounds, snapshotRounds, roundEvents int
	terminalEvents                      int
	respBytes                           int
	hits                                int
}

// client is one closed-loop user with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do submits one job, follows its event stream to the terminal event,
// fetches its status and checks the result against the reference.
func (c *client) do(j serviceJob) (jobObs, error) {
	var obs jobObs
	body := marshal(j.cfg)
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return obs, err
	}
	data, err := readAll(resp, &obs)
	if err != nil {
		return obs, err
	}
	accepted := time.Now()
	obs.submit = ms(accepted.Sub(t0))
	if resp.StatusCode != http.StatusAccepted {
		return obs, fmt.Errorf("POST /jobs: %s: %s", resp.Status, data)
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return obs, err
	}

	attach := time.Now()
	running, snapshot, end, err := c.follow(st.ID, &obs)
	if err != nil {
		return obs, err
	}
	obs.job = ms(end.Sub(t0))
	obs.queue = ms(running.Sub(accepted))
	obs.run = ms(end.Sub(running))
	obs.attach = ms(snapshot.Sub(attach))
	obs.events = ms(end.Sub(snapshot))

	t1 := time.Now()
	resp, err = c.hc.Get(c.base + "/jobs/" + st.ID)
	if err != nil {
		return obs, err
	}
	data, err = readAll(resp, &obs)
	if err != nil {
		return obs, err
	}
	obs.result = ms(time.Since(t1))
	st = server.JobStatus{}
	if err := json.Unmarshal(data, &st); err != nil {
		return obs, err
	}
	obs.rounds, obs.hits = st.Rounds, st.Spent.HITs()
	if st.State != server.StateDone {
		return obs, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if got := marshal(st.Result); !bytes.Equal(got, j.ref) {
		return obs, fmt.Errorf("job %s result %s, reference %s", st.ID, got, j.ref)
	}
	return obs, nil
}

// follow reads a job's SSE stream until the terminal state, returning
// when the job was first seen running, when the snapshot arrived and
// when the job was seen terminal.
func (c *client) follow(id string, obs *jobObs) (running, snapshot, end time.Time, err error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/stream")
	if err != nil {
		return running, snapshot, end, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, snapshot, end, fmt.Errorf("GET stream: %s", resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	for end.IsZero() {
		line, err := r.ReadString('\n')
		obs.respBytes += len(line)
		if errors.Is(err, io.EOF) {
			// The server ends a stream only after the job's terminal
			// state, but its non-blocking fan-out can drop the terminal
			// event itself when the subscriber's buffer is full. The
			// caller confirms the state with GET /jobs/{id}; the loss
			// shows in http.sse_delivery_ratio.
			end = time.Now()
			if running.IsZero() {
				running = end
			}
			if snapshot.IsZero() {
				snapshot = end
			}
			return running, snapshot, end, nil
		}
		if err != nil {
			return running, snapshot, end, fmt.Errorf("stream of %s: %w", id, err)
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var ev server.Event
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			return running, snapshot, end, err
		}
		state := ev.State
		switch ev.Type {
		case "snapshot":
			snapshot = now
			state = ev.Status.State
			obs.snapshotRounds = ev.Status.Rounds
		case "round":
			obs.roundEvents++
		}
		if state != server.StateQueued && state != "" && running.IsZero() {
			running = now
		}
		if state.Terminal() {
			end = now
			obs.terminalEvents++
		}
	}
	// Drain the stream's end so the connection is reused.
	n, _ := io.Copy(io.Discard, r)
	obs.respBytes += int(n)
	return running, snapshot, end, nil
}

func readAll(resp *http.Response, obs *jobObs) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	obs.respBytes += len(data)
	return data, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loop runs the closed loop: every client submits its next job only
// after its previous one finished. Clients stop claiming jobs once at
// least minJobs have been claimed, the deadline has passed and the
// count is a whole number of cycles, so every config weighs the same.
func loop(svc *service, jobs []serviceJob, clients, minJobs int, deadline time.Time) ([]jobObs, []error) {
	var (
		mu   sync.Mutex
		next int
		obs  []jobObs
		errs []error
		wg   sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= minJobs && next%len(jobs) == 0 && !time.Now().Before(deadline) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(svc.base)
			defer cl.close()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				o, err := cl.do(jobs[i%len(jobs)])
				mu.Lock()
				obs = append(obs, o)
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return obs, errs
}

// runServiceMixed: a closed loop of two clients against the serve-mode
// HTTP API on a loopback listener, with an fsynced data directory.
func runServiceMixed(cfg config) (*report, error) {
	return serviceMixed(cfg, defaultServiceParams())
}

type serviceSetup struct {
	jobs []serviceJob
	svc  *service
}

func serviceMixed(cfg config, p serviceParams) (*report, error) {
	rep := &report{metrics: newMetrics()}
	// Set-up: the cycle's configs and their one-shot references (the
	// service's expected outputs), engine start and listener bind, each
	// build on a data directory of its own.
	reps := 0
	su, setupS, err := setUp(func() (serviceSetup, error) {
		jobs, err := serviceJobs(p, cfg.seed)
		if err != nil {
			return serviceSetup{}, err
		}
		reps++
		svc, err := startService(p, filepath.Join(cfg.dir, fmt.Sprintf("data-%d", reps)))
		if err != nil {
			return serviceSetup{}, err
		}
		return serviceSetup{jobs, svc}, nil
	}, func(su serviceSetup) { su.svc.stop() })
	if err != nil {
		return nil, err
	}
	jobs, svc := su.jobs, su.svc
	defer svc.stop()

	// Warm-up: one untimed cycle.
	_, errs := loop(svc, jobs, p.Clients, len(jobs), time.Time{})
	for _, err := range errs {
		rep.check(err)
	}

	// The window runs MinJobs jobs, reads the live heap while the engine
	// holds exactly those and the warm-up's, then runs whole cycles until
	// its time is up. The heap read is outside the timed phases. A traced
	// run measures the same single window: the client-side figures need
	// no shims.
	var (
		w   window
		obs []jobObs
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	phase := func(minJobs int, deadline time.Time) {
		w.timed(func() error {
			o, errs := loop(svc, jobs, p.Clients, minJobs, deadline)
			for _, err := range errs {
				rep.check(err)
			}
			obs = append(obs, o...)
			return nil
		})
	}
	phase(p.MinJobs, time.Time{})
	heapMB := liveHeapMB()
	phase(0, deadline)
	for _, o := range obs {
		w.hits += o.hits
		w.jobs++
	}
	if cfg.trace {
		serviceLayers(rep.metrics, svc, w, obs)
	} else {
		w.endToEnd(rep.metrics, setupS, heapMB)
	}
	return rep.finish(), nil
}

// serviceLayers fills the per-layer metrics of a traced service-mixed
// run from what the clients observed and what the data directory holds.
// The audit stack runs inside the server, so its layers are not
// observable from here.
func serviceLayers(m map[string]float64, svc *service, w window, obs []jobObs) {
	for _, name := range []string{
		"lockstep.rounds", "lockstep.hits_per_round", "lockstep.self_ns_per_hit",
		"platform.set_ns_per_hit", "platform.point_ns_per_hit", "platform.busy_share",
		"governor.self_ns_per_hit", "governor.refused",
		"journal.append_us_p50", "journal.append_us_p99", "journal.self_ns_per_round",
	} {
		m[name] = notObserved
	}
	var submit, result, queue, run, job, attach, events []float64
	var delivered, expected, rounds, respBytes float64
	for _, o := range obs {
		submit = append(submit, o.submit)
		result = append(result, o.result)
		queue = append(queue, o.queue)
		run = append(run, o.run)
		job = append(job, o.job)
		attach = append(attach, o.attach)
		events = append(events, o.events)
		// Every round committed after the snapshot, and the terminal
		// state, should arrive as an event.
		delivered += float64(o.roundEvents + o.terminalEvents)
		expected += float64(o.rounds - o.snapshotRounds + 1)
		rounds += float64(o.rounds)
		respBytes += float64(o.respBytes)
	}
	n := float64(len(obs))
	pct := func(xs []float64, q float64) float64 {
		if v, ok := stat.Percentile(xs, q); ok {
			return v
		}
		return notObserved
	}
	m["http.submit_ms_p50"] = stat.Median(submit)
	m["http.result_ms_p50"] = stat.Median(result)
	m["http.response_bytes_per_job"] = respBytes / n
	m["http.sse_delivery_ratio"] = delivered / expected
	m["http.jobs_per_s"] = float64(w.jobs) / w.elapsed.Seconds()
	m["http.job_p50_ms"] = stat.Median(job)
	m["http.job_p95_ms"] = pct(job, 0.95)
	m["server.queue_ms_p50"] = stat.Median(queue)
	m["server.run_ms_p50"] = stat.Median(run)
	m["server.run_ms_p95"] = pct(run, 0.95)
	m["server.rounds_per_job"] = rounds / n

	// Every job of the engine so far (warm-up and window) left a journal
	// and a meta file.
	var disk, jnlBytes float64
	entries, _ := os.ReadDir(svc.dir)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || info.IsDir() {
			continue
		}
		disk += float64(info.Size())
		if strings.HasSuffix(e.Name(), ".jnl") {
			jnlBytes += float64(info.Size() - int64(len("CVGJNL01")))
		}
	}
	all := svc.eng.List()
	var allRounds float64
	for _, st := range all {
		allRounds += float64(st.Rounds)
	}
	m["server.disk_bytes_per_job"] = disk / float64(len(all))
	m["journal.bytes_per_round"] = jnlBytes / allRounds
	// No shim sits in the service's path, so the traced run is the
	// untraced one.
	m["trace.overhead_ratio"] = 1
	// The spans are the waits of the POST and of the stream; the
	// client's own time between them is unattributed.
	m["trace.unattributed_share"] = 1 - (stat.Sum(submit)+stat.Sum(attach)+stat.Sum(events))/stat.Sum(job)
}
