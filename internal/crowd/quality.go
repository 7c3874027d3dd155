package crowd

import (
	"fmt"
	"math/rand"
	"slices"

	"imagecvg/internal/imagegen"
	"imagecvg/internal/pattern"
)

// QualificationTest screens workers before they may accept HITs, as in
// the paper's MTurk deployment: a battery of glyph-labeling questions
// with known answers; workers below the pass mark are excluded.
type QualificationTest struct {
	// Questions is the number of test questions.
	Questions int
	// PassFraction is the minimum fraction of correct answers.
	PassFraction float64
}

// DefaultQualification mirrors the deployment: 10 questions, 80 % to pass.
func DefaultQualification() *QualificationTest {
	return &QualificationTest{Questions: 10, PassFraction: 0.8}
}

// Administer runs the test for one worker against a renderer and
// returns whether they pass. Each question shows the glyph of a random
// subgroup and asks for its labels.
func (q *QualificationTest) Administer(w *Worker, r *imagegen.Renderer, rng *rand.Rand) (bool, error) {
	if q.Questions <= 0 || q.PassFraction < 0 || q.PassFraction > 1 {
		return false, fmt.Errorf("crowd: invalid qualification test %+v", q)
	}
	s := r.Schema()
	correct := 0
	for i := 0; i < q.Questions; i++ {
		k := rng.Intn(s.NumSubgroups())
		got := slices.Clone(r.Labels(w.perceive(r, k)))
		if w.slip() {
			// A slip on the test corrupts one attribute of the worker's
			// own copy of the decoded labels.
			corruptOneAttrInPlace(got, s, w.rng)
		}
		// Adversarial strategies answer the qualification test too, so
		// lazy or spamming workers can fail screening realistically.
		if w.strategy != nil {
			w.strategy.AnswerLabels(w, s, got)
		}
		if equalLabels(got, r.Labels(k)) {
			correct++
		}
	}
	return float64(correct) >= q.PassFraction*float64(q.Questions), nil
}

// RatingFilter excludes workers below reputation thresholds, matching
// the paper's PercentAssignmentsApproved >= 95 and
// NumberHITsApproved >= 100 criteria.
type RatingFilter struct {
	MinApprovalPercent float64
	MinApprovedHITs    int
}

// DefaultRating mirrors the paper's thresholds.
func DefaultRating() *RatingFilter {
	return &RatingFilter{MinApprovalPercent: 95, MinApprovedHITs: 100}
}

// Eligible reports whether the worker meets the thresholds.
func (f *RatingFilter) Eligible(w *Worker) bool {
	return w.ApprovalPercent >= f.MinApprovalPercent && w.ApprovedHITs >= f.MinApprovedHITs
}

// corruptOneAttrInPlace flips one attribute of a label vector to a
// different valid value — the single copy of the slip-corruption
// logic, shared by the point-query path and the qualification test
// (both own their slices). RNG consumption is pinned by the regression
// suite: one Intn picking the attribute, one more only when its
// cardinality admits a different value.
func corruptOneAttrInPlace(labels []int, s *pattern.Schema, rng *rand.Rand) {
	attr := rng.Intn(len(labels))
	c := s.Attr(attr).Cardinality()
	if c < 2 {
		return
	}
	v := rng.Intn(c - 1)
	if v >= labels[attr] {
		v++
	}
	labels[attr] = v
}

func equalLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
