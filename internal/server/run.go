package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/crowd"
	"imagecvg/internal/dataset"
	"imagecvg/internal/journal"
	"imagecvg/internal/pattern"
)

// runAudit executes (or resumes) one job's audit. core.NewStack builds
// its stack exactly as it builds the root Auditor's — a journal over
// an optional budget governor, which puts the job on the lockstep
// scheduler — so a job's verdicts, task tallies and spend are
// byte-identical to the one-shot run of the same configuration, at
// every parallelism level and across a kill/restart.
func (e *Engine) runAudit(ctx context.Context, j *job) (res *JobResult, err error) {
	cfg := j.cfg
	ds, err := buildDataset(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	schema := ds.Schema()
	if cfg.Attr >= schema.NumAttrs() {
		return nil, fmt.Errorf("server: attr %d outside schema (%d attributes)", cfg.Attr, schema.NumAttrs())
	}

	jnlPath := filepath.Join(e.opts.DataDir, j.id+".jnl")
	var (
		jnl    *journal.Journal
		replay []core.RoundRecord
	)
	if j.resume {
		jnl, replay, err = journal.Open(jnlPath)
	} else {
		jnl, err = journal.Create(jnlPath)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		// A lost final fsynced frame is silent data loss: surface the
		// close error when the audit itself succeeded.
		if cerr := jnl.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()

	var (
		oracle core.Oracle
		costFn core.CostFunc
	)
	switch cfg.Oracle {
	case "crowd":
		p, perr := newPlatform(ds, cfg)
		if perr != nil {
			return nil, perr
		}
		// The platform is stateful (worker draws advance an RNG per
		// HIT) but a pure function of (seed, request sequence), so
		// re-posting the journaled answered prefixes reconstructs its
		// state — RNG stream and cost ledger — exactly. Replay then
		// answers those rounds from the journal without re-charging,
		// and live rounds continue byte-identical to an uninterrupted
		// run.
		if werr := p.Warm(replay); werr != nil {
			return nil, werr
		}
		oracle, costFn = p, p.HITCost()
	default: // "truth"
		var o core.Oracle = core.NewTruthOracle(ds)
		if cfg.HITDelayMicros > 0 {
			o = core.DelayOracle{Inner: o, Delay: time.Duration(cfg.HITDelayMicros) * time.Microsecond}
		}
		oracle = o
	}

	sc := core.StackConfig{Journal: &notifyJournal{eng: e, job: j, inner: jnl}, Replay: replay, Ctx: ctx}
	if b := j.caps.budget(costFn); b.Active() {
		sc.Budget = &b
	}
	st, err := core.NewStack(oracle, sc)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.rounds, j.replayed = len(replay), 0
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		j.rounds, j.replayed = st.Journal.Rounds(), st.Journal.Replayed()
		if st.Governor != nil {
			j.spent = st.Governor.Spent()
		}
		j.mu.Unlock()
	}()

	opts := core.MultipleOptions{
		Rng:         rand.New(rand.NewSource(cfg.Seed)),
		Parallelism: cfg.Parallelism,
		Lockstep:    st.Lockstep(),
		Ctx:         ctx,
	}
	spent := func() core.BudgetSpent {
		if st.Governor == nil {
			return core.BudgetSpent{}
		}
		return st.Governor.Spent()
	}
	switch cfg.Mode {
	case ModeIntersectional:
		ir, aerr := core.IntersectionalCoverage(st.Top, ds.IDs(), cfg.SetSize, cfg.Tau, schema, opts)
		if aerr != nil {
			return nil, aerr
		}
		return ResultFromIntersectional(ir, schema, spent()), nil
	case ModeClassifier:
		groups := pattern.GroupsForAttribute(schema, cfg.Attr)
		if cfg.Value >= len(groups) {
			return nil, fmt.Errorf("server: value %d outside attribute %d (%d values)", cfg.Value, cfg.Attr, len(groups))
		}
		g := groups[cfg.Value]
		predicted := ds.PredictedSet(g, cfg.ClassifierTP, cfg.ClassifierFP)
		cr, aerr := core.ClassifierCoverage(st.Top, ds.IDs(), predicted, cfg.SetSize, cfg.Tau, g,
			core.ClassifierOptions{
				Rng:         rand.New(rand.NewSource(cfg.Seed)),
				Parallelism: cfg.Parallelism,
				Lockstep:    st.Lockstep(),
				Ctx:         ctx,
			})
		if aerr != nil {
			return nil, aerr
		}
		return ResultFromClassifier(cr, spent()), nil
	default: // ModeMultiple
		mr, aerr := core.MultipleCoverage(st.Top, ds.IDs(), cfg.SetSize, cfg.Tau,
			pattern.GroupsForAttribute(schema, cfg.Attr), opts)
		if aerr != nil {
			return nil, aerr
		}
		return ResultFromMultiple(mr, spent()), nil
	}
}

// buildDataset realizes a job's dataset spec; generated datasets use
// the same construction as the root GenerateBinary.
func buildDataset(spec DatasetSpec) (*dataset.Dataset, error) {
	if spec.Path != "" {
		return dataset.LoadJSON(spec.Path)
	}
	return dataset.BinaryWithMinority(spec.N, spec.Minority, rand.New(rand.NewSource(spec.Seed)))
}

// newPlatform builds the simulated crowd for a job, mirroring the
// root NewSimulatedCrowd so crowd-backed serve jobs and one-shot
// audits share the exact deployment.
func newPlatform(ds *dataset.Dataset, cfg JobConfig) (*crowd.Platform, error) {
	c := crowd.DefaultConfig(cfg.Seed)
	if cfg.Assignments > 0 {
		c.Assignments = cfg.Assignments
	}
	if cfg.PoolSize > 0 {
		c.Profile = crowd.DefaultProfile(cfg.PoolSize)
	}
	return crowd.NewPlatform(ds, c)
}

// notifyJournal wraps the file journal as the engine's RoundJournal:
// after each durable append it advances the job's live status and
// fans a round event out to stream subscribers. Append runs under the
// journaling middleware's round lock, so the live counter needs no
// extra synchronization.
type notifyJournal struct {
	eng   *Engine
	job   *job
	inner *journal.Journal
	live  int
}

// Append implements core.RoundJournal.
func (n *notifyJournal) Append(rec core.RoundRecord) error {
	if err := n.inner.Append(rec); err != nil {
		return err
	}
	n.live++
	j := n.job
	j.mu.Lock()
	j.rounds = rec.Round + 1
	j.spent = rec.Spent
	cancel := j.cancel
	j.mu.Unlock()
	spent := rec.Spent
	n.eng.publish(j, Event{Type: "round", Round: rec.Round, Spent: &spent})
	if k := n.eng.opts.CrashAfterRounds; k > 0 && n.live >= k && cancel != nil {
		// Fault injection: the next round fails its context check
		// before reaching the oracle — exactly a kill at a round
		// boundary.
		cancel()
	}
	return nil
}

// marshalMeta / unmarshalStrict are the meta file codec.
func marshalMeta(meta jobMeta) ([]byte, error) {
	return json.MarshalIndent(meta, "", "  ")
}

// unmarshalStrict decodes JSON rejecting unknown fields and trailing
// data, so a misspelled or foreign job meta file fails recovery
// loudly instead of being silently half-read.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
