// Package crowd simulates a microtask crowdsourcing platform in the
// style of Amazon Mechanical Turk: a pool of imperfect workers, HITs
// (point queries, set queries, reverse set queries) assigned
// redundantly, truth inference by majority or weighted vote (plus a
// batch Dawid–Skene estimator), qualification tests, rating-based
// worker filters, and a fixed-price cost ledger with platform fees.
//
// Workers never see ground truth: they perceive the rendered glyph of
// each image through their personal perceptual noise and may still
// flip their final answer with a per-worker slip probability. The
// combination reproduces the regime the paper measured on MTurk
// (about 1.4 % of raw answers wrong, virtually never surviving a
// 3-way majority vote).
package crowd

import (
	"fmt"
	"math/rand"

	"imagecvg/internal/imagegen"
)

// Worker is one simulated crowd worker.
type Worker struct {
	ID int
	// PerceptNoise is the standard deviation of the pixel noise the
	// worker sees when looking at a glyph (0..255 scale).
	PerceptNoise float64
	// SlipRate is the probability of flipping the final answer of a
	// yes/no HIT (or corrupting one attribute of a point label),
	// modeling inattention independent of perception.
	SlipRate float64
	// ApprovalPercent and ApprovedHITs are the worker's platform
	// reputation, used by the rating quality-control filter
	// (PercentAssignmentsApproved, NumberHITsApproved on MTurk).
	ApprovalPercent float64
	ApprovedHITs    int

	rng *rand.Rand
	// strategy, when non-nil, overrides the worker's final answers
	// AFTER the honest perceive-and-slip path has consumed its RNG
	// draws; see WorkerStrategy for the invariant this preserves.
	strategy WorkerStrategy
}

// Adversarial reports whether the worker answers through an
// adversarial strategy, and its name ("" when honest).
func (w *Worker) Adversarial() (string, bool) {
	if w.strategy == nil {
		return "", false
	}
	return w.strategy.Name(), true
}

// perceive returns the subgroup the worker decodes when looking at the
// glyph of subgroup k through their perceptual noise.
func (w *Worker) perceive(r *imagegen.Renderer, k int) int {
	return r.Perceive(k, w.PerceptNoise, w.rng)
}

// slip reports whether the worker slips on this answer.
func (w *Worker) slip() bool { return w.rng.Float64() < w.SlipRate }

// PoolProfile configures worker pool generation.
type PoolProfile struct {
	// Size is the number of workers in the pool.
	Size int
	// SlipMin and SlipMax bound the uniform slip-rate distribution.
	SlipMin, SlipMax float64
	// PerceptNoise is every worker's perceptual noise level.
	PerceptNoise float64
	// SpammerFraction of workers answer nearly at random
	// (slip rate 0.45); used for failure-injection experiments.
	SpammerFraction float64
}

// DefaultProfile reproduces the paper's observed MTurk regime: good
// workers with ~0.5–2.5 % slip, mild perceptual noise, no spammers.
func DefaultProfile(size int) PoolProfile {
	return PoolProfile{Size: size, SlipMin: 0.005, SlipMax: 0.025, PerceptNoise: 15}
}

// NewPool generates a worker pool from the profile. Each worker gets
// an independent deterministic RNG derived from rng.
func NewPool(p PoolProfile, rng *rand.Rand) ([]*Worker, error) {
	if p.Size <= 0 {
		return nil, fmt.Errorf("crowd: pool size %d", p.Size)
	}
	if p.SlipMin < 0 || p.SlipMax > 1 || p.SlipMin > p.SlipMax {
		return nil, fmt.Errorf("crowd: slip range [%v,%v]", p.SlipMin, p.SlipMax)
	}
	if p.SpammerFraction < 0 || p.SpammerFraction > 1 {
		return nil, fmt.Errorf("crowd: spammer fraction %v", p.SpammerFraction)
	}
	pool := make([]*Worker, p.Size)
	for i := range pool {
		w := &Worker{
			ID:              i,
			PerceptNoise:    p.PerceptNoise,
			SlipRate:        p.SlipMin + rng.Float64()*(p.SlipMax-p.SlipMin),
			ApprovalPercent: 90 + rng.Float64()*10,
			ApprovedHITs:    rng.Intn(5000),
			rng:             rand.New(rand.NewSource(rng.Int63())),
		}
		if rng.Float64() < p.SpammerFraction {
			w.SlipRate = 0.45
			w.ApprovalPercent = 60 + rng.Float64()*35
			w.ApprovedHITs = rng.Intn(200)
		}
		pool[i] = w
	}
	return pool, nil
}
