// Command cvgrun audits a dataset file for representation bias: it
// loads a JSON dataset (see cvggen), runs one of the paper's coverage
// algorithms against either a perfect oracle or the simulated crowd,
// and prints the verdicts and cost.
//
// Usage:
//
//	cvgrun -data rare.json -mode group -group "1" -tau 50 -n 50
//	cvgrun -data feret.json -mode base -group "1"
//	cvgrun -data faces.json -mode intersectional -crowd
//	cvgrun -data faces.json -mode attribute -attr gender
//	cvgrun -data faces.json -mode attribute -crowd -parallelism 8
//	cvgrun -data faces.json -mode classifier -group "1" -accuracy 0.95 -precision 0.9 -parallelism 4
//	cvgrun -data faces.json -mode attribute -crowd -lockstep -max-hits 200
//	cvgrun -data faces.json -mode group -group "1" -crowd -lockstep -max-spend 25.00
//	cvgrun -data faces.json -mode attribute -crowd -journal audit.jnl
//	cvgrun -data faces.json -mode attribute -crowd -journal audit.jnl -resume
//	cvgrun -data faces.json -mode group -group "1" -crowd -adversary-strategy colluding-liar -adversary-rate 0.3 -trust
//
// With -serve, cvgrun instead runs the multi-tenant audit service: an
// HTTP job engine where each audit is a persistent job with its own
// crash-safe journal under -data-dir, surviving server restarts with
// byte-identical results:
//
//	cvgrun -serve :8080 -data-dir /var/lib/cvg
//	cvgrun -serve 127.0.0.1:8080 -data-dir ./jobs -serve-workers 8 -tenant-max-hits 5000
//
// The service API is unauthenticated (tenants partition budgets, not
// access) — bind loopback or a firewalled address unless an
// authenticating proxy fronts it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"imagecvg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) (code int) {
	fs := flag.NewFlagSet("cvgrun", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		data      = fs.String("data", "", "dataset JSON file (required)")
		mode      = fs.String("mode", "group", "audit mode: group, base, attribute, intersectional, repair, classifier")
		groupStr  = fs.String("group", "", "pattern of the audited group, e.g. \"1\" or \"X1\" (group/base/classifier modes)")
		attr      = fs.String("attr", "", "attribute name (attribute mode)")
		accuracy  = fs.Float64("accuracy", 0.95, "simulated classifier's overall accuracy (classifier mode)")
		precision = fs.Float64("precision", 0.90, "simulated classifier's precision on the audited group (classifier mode)")
		tau       = fs.Int("tau", 50, "coverage threshold")
		n         = fs.Int("n", 50, "set-query size upper bound")
		seed      = fs.Int64("seed", 1, "random seed")
		useCrowd  = fs.Bool("crowd", false, "audit through the simulated crowd instead of ground truth")
		par       = fs.Int("parallelism", 1, "width of the concurrent audit engine, which runs deterministic lockstep rounds (bit-identical results at any width above 1, even through the order-dependent simulated crowd); <=1 sequential")
		lockstep  = fs.Bool("lockstep", false, "run the lockstep rounds at -parallelism 1 too, so width 1 matches every other width")
		cache     = fs.Bool("cache", false, "deduplicate identical HITs with a query cache")
		maxHITs   = fs.Int("max-hits", 0, "cap the committed crowd HITs; the audit returns a deterministic partial verdict when the cap is hit (0 = unlimited)")
		maxSpend  = fs.Float64("max-spend", 0, "cap the committed crowd spend; with -crowd priced by the deployment's cost model (assignments x price + fee), otherwise one unit per HIT (0 = unlimited)")
		journalAt = fs.String("journal", "", "checkpoint every committed oracle round to this crash-safe journal file (implies -lockstep)")
		resume    = fs.Bool("resume", false, "resume from the journal's committed rounds instead of starting fresh (requires -journal); replayed rounds touch neither the crowd nor the budget")
		advStrat  = fs.String("adversary-strategy", "", "plant adversarial workers in the simulated crowd: lazy-yes, random-spam or colluding-liar (requires -crowd; honest workers stay byte-identical)")
		advRate   = fs.Float64("adversary-rate", 0.25, "adversarial fraction of the worker pool in [0,1] (with -adversary-strategy)")
		trust     = fs.Bool("trust", false, "screen adversarial workers with the gold-probe trust middleware (requires -crowd; implies -lockstep; with -resume, replayed verdicts and the probe schedule restore exactly but trust evidence restarts — the raw answer feed is process-local, not journaled)")
		probeN    = fs.Int("trust-probes", 8, "size of the deterministic gold-probe battery the trust middleware cycles (with -trust)")

		serveAddr    = fs.String("serve", "", "run the audit service on this address (e.g. :8080) instead of a one-shot audit; requires -data-dir")
		dataDir      = fs.String("data-dir", "", "data directory for the audit service's per-job journals and metadata (with -serve)")
		serveWorkers = fs.Int("serve-workers", 4, "concurrent jobs of the audit service's worker pool (with -serve)")
		tenantHITs   = fs.Int("tenant-max-hits", 0, "cap each tenant's committed crowd HITs across all its jobs (with -serve; 0 = unlimited)")
		tenantSpend  = fs.Float64("tenant-max-spend", 0, "cap each tenant's committed crowd spend across all its jobs (with -serve; 0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *serveAddr != "" {
		if *dataDir == "" {
			fmt.Fprintln(errOut, "cvgrun: -serve requires -data-dir")
			return 2
		}
		return serve(*serveAddr, imagecvg.AuditServiceOptions{
			DataDir:        *dataDir,
			Workers:        *serveWorkers,
			TenantMaxHITs:  *tenantHITs,
			TenantMaxSpend: *tenantSpend,
		}, out, errOut)
	}
	if *data == "" {
		fmt.Fprintln(errOut, "cvgrun: -data is required")
		return 2
	}
	if *trust && *probeN <= 0 {
		// A non-positive battery would silently disable probing inside
		// the trust middleware (GoldProbes returns an empty battery),
		// leaving every worker unscreened while -trust claims otherwise.
		fmt.Fprintf(errOut, "cvgrun: -trust-probes must be positive, got %d\n", *probeN)
		return 2
	}
	ds, err := imagecvg.LoadDataset(*data)
	if err != nil {
		fmt.Fprintln(errOut, "cvgrun:", err)
		return 1
	}
	fmt.Fprintf(out, "dataset: %d objects over schema %s\n", ds.Size(), ds.Schema())

	if (*advStrat != "" || *trust) && !*useCrowd {
		fmt.Fprintln(errOut, "cvgrun: -adversary-strategy and -trust require -crowd")
		return 2
	}
	var oracle imagecvg.Oracle
	var crowdOracle *imagecvg.SimulatedCrowd
	if *useCrowd {
		crowdOracle, err = imagecvg.NewSimulatedCrowd(ds, *seed, imagecvg.CrowdOptions{
			AdversaryStrategy: *advStrat,
			AdversaryRate:     *advRate,
			// Trust scoring reads the raw per-worker answer stream.
			RecordResponses: *trust,
		})
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		oracle = crowdOracle
	} else {
		oracle = imagecvg.NewTruthOracle(ds)
	}
	auditor := imagecvg.NewAuditor(oracle, *tau, *n).WithSeed(*seed).WithParallelism(*par)
	if *lockstep {
		auditor = auditor.WithLockstep()
	}
	if *maxHITs > 0 || *maxSpend > 0 {
		budget := imagecvg.Budget{MaxHITs: *maxHITs, MaxSpend: *maxSpend}
		if crowdOracle != nil {
			budget.Cost = crowdOracle.HITCost()
		}
		auditor = auditor.WithBudget(budget)
	}
	if *resume && *journalAt == "" {
		fmt.Fprintln(errOut, "cvgrun: -resume requires -journal")
		return 2
	}
	if *journalAt != "" {
		var (
			jnl    *imagecvg.FileJournal
			replay []imagecvg.RoundRecord
		)
		if *resume {
			jnl, replay, err = imagecvg.OpenJournal(*journalAt)
		} else {
			jnl, err = imagecvg.CreateJournal(*journalAt)
		}
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		// Close on every exit path — audit errors and flag errors
		// included — and surface the close error: the final frame is
		// only durable once the file handle closes cleanly, so a
		// swallowed error here is silent checkpoint loss.
		defer func() {
			if cerr := jnl.Close(); cerr != nil {
				fmt.Fprintln(errOut, "cvgrun: journal close:", cerr)
				if code == 0 {
					code = 1
				}
			}
		}()
		auditor = auditor.WithJournal(jnl, replay)
		if *resume {
			fmt.Fprintf(out, "journal: resuming %d committed rounds from %s\n", len(replay), *journalAt)
		} else {
			fmt.Fprintf(out, "journal: checkpointing to %s\n", *journalAt)
		}
	}
	if *trust {
		probes := imagecvg.GoldProbes(ds, imagecvg.GroupsForAttribute(ds.Schema(), 0), *probeN, *seed+99)
		auditor, err = auditor.WithTrust(imagecvg.TrustConfig{
			Probes: probes,
			Feed:   crowdOracle.AnswerFeed(),
			Screen: crowdOracle.Screener(),
		})
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
	}
	if *cache {
		auditor = auditor.WithCache()
	}

	switch *mode {
	case "group", "base":
		if *groupStr == "" {
			fmt.Fprintln(errOut, "cvgrun: -group is required for group/base modes")
			return 2
		}
		p, err := imagecvg.ParsePattern(ds.Schema(), *groupStr)
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		g := imagecvg.GroupOf(p.Format(ds.Schema()), p)
		var res imagecvg.GroupResult
		if *mode == "group" {
			res, err = auditor.AuditGroup(ds.IDs(), g)
		} else {
			res, err = auditor.AuditBaseline(ds.IDs(), g)
		}
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		fmt.Fprintln(out, res)
	case "classifier":
		if *groupStr == "" {
			fmt.Fprintln(errOut, "cvgrun: -group is required for classifier mode")
			return 2
		}
		p, err := imagecvg.ParsePattern(ds.Schema(), *groupStr)
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		g := imagecvg.GroupOf(p.Format(ds.Schema()), p)
		pos := 0
		for i := 0; i < ds.Size(); i++ {
			if g.Matches(ds.At(i).Labels) {
				pos++
			}
		}
		// A simulated predictor realizing the requested statistics
		// stands in for the user's pre-trained model; the audit itself
		// only consumes the predicted-positive set.
		model, err := imagecvg.NewSimulatedClassifier("simulated", pos, ds.Size()-pos, *accuracy, *precision)
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		predicted, err := model.Predict(ds, g, rand.New(rand.NewSource(*seed+1)))
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		conf, err := imagecvg.EvaluateClassifier(ds, g, predicted)
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		fmt.Fprintf(out, "classifier: %s over %d predicted positives\n", conf, len(predicted))
		res, err := auditor.AuditWithClassifier(ds.IDs(), predicted, g)
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		fmt.Fprintln(out, res)
	case "attribute":
		idx := 0
		if *attr != "" {
			idx = ds.Schema().AttrIndex(*attr)
			if idx < 0 {
				fmt.Fprintf(errOut, "cvgrun: unknown attribute %q\n", *attr)
				return 1
			}
		}
		res, err := auditor.AuditAttribute(ds.IDs(), ds.Schema(), idx)
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		for _, r := range res.Results {
			verdict := "UNCOVERED"
			if r.Covered {
				verdict = "covered"
			}
			if !r.Settled {
				verdict = "UNSETTLED"
			}
			fmt.Fprintf(out, "  %-30s %-10s count in [%d, %d]\n", r.Group, verdict, r.CountLo, r.CountHi)
		}
		if res.Exhausted {
			fmt.Fprintln(out, "budget exhausted: unsettled verdicts carry best-effort bounds only")
		}
		fmt.Fprintf(out, "total tasks: %d (samples %d + audits %d)\n", res.Tasks, res.SampleTasks, res.AuditTasks)
	case "intersectional", "repair":
		res, err := auditor.AuditIntersectional(ds.IDs(), ds.Schema())
		if err != nil {
			fmt.Fprintln(errOut, "cvgrun:", err)
			return 1
		}
		if len(res.MUPs) == 0 {
			fmt.Fprintln(out, "no uncovered patterns: every subgroup reaches the threshold")
		} else {
			fmt.Fprintln(out, "maximal uncovered patterns (MUPs):")
			for _, m := range res.MUPs {
				fmt.Fprintf(out, "  %-40s count=%d\n", m.Pattern.Format(ds.Schema()), m.Count)
			}
		}
		fmt.Fprintf(out, "total tasks: %d\n", res.Tasks)
		if *mode == "repair" {
			plan, err := auditor.PlanRepair(ds.Schema(), res)
			if err != nil {
				fmt.Fprintln(errOut, "cvgrun:", err)
				return 1
			}
			fmt.Fprintln(out, "acquisition plan:")
			fmt.Fprintln(out, plan)
		}
	default:
		fmt.Fprintf(errOut, "cvgrun: unknown mode %q\n", *mode)
		return 2
	}

	if crowdOracle != nil {
		fmt.Fprintln(out, "crowd cost:", crowdOracle.Cost())
	}
	if spent, ok := auditor.BudgetSpent(); ok {
		fmt.Fprintf(out, "budget: %d HITs committed (point=%d set=%d reverse=%d), spend %.2f, %d queries refused\n",
			spent.HITs(), spent.Point, spent.Set, spent.ReverseSet, spent.Spend, spent.Denied)
	}
	if stats, ok := auditor.CacheStats(); ok {
		fmt.Fprintf(out, "cache: %d hits / %d misses (%.0f%% saved)\n",
			stats.Hits.Total(), stats.Misses.Total(), 100*stats.HitRate())
	}
	if replayed, rounds, ok := auditor.JournalStats(); ok {
		fmt.Fprintf(out, "journal: %d rounds committed (%d replayed, %d live)\n",
			rounds, replayed, rounds-replayed)
	}
	if report, ok := auditor.TrustStats(); ok {
		fmt.Fprintf(out, "trust: %d gold probes issued, %d of %d workers excluded\n",
			report.ProbesIssued, report.Excluded, len(report.Workers))
		for _, w := range report.Workers {
			if w.Excluded {
				fmt.Fprintf(out, "  worker %d excluded: score %.2f (probes %d/%d failed, contradictions %d/%d)\n",
					w.Worker, w.Score, w.ProbeFails, w.Probes, w.Contradictions, w.Answers)
			}
		}
	}
	return 0
}

// readHeaderTimeout bounds how long a -serve client may take to send
// its request headers, so slow or stalled connections cannot pin
// server goroutines indefinitely.
const readHeaderTimeout = 10 * time.Second

// serve runs the audit service until SIGINT/SIGTERM. On shutdown,
// running jobs are cancelled at their next round boundary and park
// non-terminal; their journals resume them — byte-identically — when
// the service next starts over the same data directory.
func serve(addr string, opts imagecvg.AuditServiceOptions, out, errOut io.Writer) int {
	eng, err := imagecvg.NewAuditService(opts)
	if err != nil {
		fmt.Fprintln(errOut, "cvgrun:", err)
		return 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		eng.Close()
		fmt.Fprintln(errOut, "cvgrun:", err)
		return 1
	}
	srv := &http.Server{Handler: eng.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(out, "cvgrun: serving audit jobs on %s (data dir %s, %d workers)\n",
		ln.Addr(), opts.DataDir, opts.Workers)
	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "cvgrun: shutting down; interrupted jobs resume on restart")
		// Park the jobs first so open SSE streams end, then drain the
		// HTTP server (force-closing stragglers after the grace period).
		eng.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			srv.Close()
		}
		return 0
	case err := <-errCh:
		eng.Close()
		fmt.Fprintln(errOut, "cvgrun:", err)
		return 1
	}
}
