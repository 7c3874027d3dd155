package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// scriptedBatch is a native BatchOracle whose k-th round call answers
// the prefix script[k] (mod the posted length + 1) allows and fails
// the rest transiently; once the script runs out it answers whole
// rounds. Request i of the round is the query on object i, and its
// answer is a function of i alone, so a failure-free run is known.
// It counts each request's failures and checks what every call posts:
// it starts at the first unanswered request, a call after a failure
// posts only the failed request, and a call after that request's
// answer posts the rest of the round.
type scriptedBatch struct {
	t        *testing.T
	n        int // requests in the round
	script   []byte
	calls    int
	answered int   // requests answered so far, a prefix of the round
	fails    []int // failures per request
	lastErr  bool  // the previous call failed
	lastLone bool  // the previous call was a retry of one request
}

func scriptedSet(i dataset.ObjectID) bool    { return i%3 == 1 }
func scriptedPoint(i dataset.ObjectID) []int { return []int{int(i) % 5} }

// take answers the posted ids for one call: how many it answers, and
// the error that cuts the rest off.
func (s *scriptedBatch) take(ids []dataset.ObjectID) (int, error) {
	left := s.n - s.answered
	switch {
	case len(ids) > 0 && int(ids[0]) != s.answered:
		s.t.Errorf("call %d posts from request %d, %d already answered", s.calls, ids[0], s.answered)
	case s.lastErr && len(ids) != 1:
		s.t.Errorf("call %d retries %d requests, want the failed one alone", s.calls, len(ids))
	case s.lastLone && !s.lastErr && len(ids) != left:
		s.t.Errorf("call %d posts %d requests after a retry, want the %d left", s.calls, len(ids), left)
	}
	p := len(ids)
	var err error
	if s.calls < len(s.script) {
		if q := int(s.script[s.calls]) % (len(ids) + 1); q < p {
			p, err = q, ErrTransient
		}
	}
	s.lastLone = s.lastErr
	s.lastErr = err != nil
	s.calls++
	s.answered += p
	if err != nil {
		s.fails[s.answered]++
	}
	return p, err
}

func (s *scriptedBatch) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	ids := make([]dataset.ObjectID, len(reqs))
	for i, r := range reqs {
		ids[i] = r.IDs[0]
	}
	p, err := s.take(ids)
	answers := make([]bool, p)
	for i := range answers {
		answers[i] = scriptedSet(ids[i])
	}
	return answers, err
}

func (s *scriptedBatch) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	p, err := s.take(ids)
	labels := make([][]int, p)
	for i := range labels {
		labels[i] = scriptedPoint(ids[i])
	}
	return labels, err
}

func (s *scriptedBatch) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(s, ids, g, false)
}
func (s *scriptedBatch) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return setOne(s, ids, g, true)
}
func (s *scriptedBatch) PointQuery(id dataset.ObjectID) ([]int, error) {
	return pointOne(s, id)
}

// FuzzRetryRound drives one retried round over a scripted inner
// oracle: each call answers a fuzzed prefix of what it is posted and
// fails the rest transiently. The round must fail exactly when one
// query has failed MaxAttempts times, and stop posting then; it must
// never re-post an answered request, must retry a failed query on its
// own, and must return the answers of a failure-free run (their
// prefix, when it fails).
func FuzzRetryRound(f *testing.F) {
	f.Add(uint8(1), uint8(8), false, []byte{5, 0, 0, 2})
	f.Add(uint8(1), uint8(8), true, []byte{0, 0, 0})
	f.Add(uint8(0), uint8(30), false, []byte{4, 0, 4, 1, 4, 1, 4, 0, 0})
	f.Add(uint8(3), uint8(0), true, []byte{})
	f.Fuzz(func(t *testing.T, attemptsRaw, nRaw uint8, point bool, script []byte) {
		maxAttempts, n := 2+int(attemptsRaw)%4, int(nRaw)%41
		ids := make([]dataset.ObjectID, n)
		reqs := make([]SetRequest, n)
		for i := range ids {
			ids[i] = dataset.ObjectID(i)
			reqs[i] = SetRequest{IDs: ids[i : i+1]}
		}
		inner := &scriptedBatch{t: t, n: n, script: script, fails: make([]int, n+1)}
		r := withRetry(context.Background(), inner, RetryPolicy{MaxAttempts: maxAttempts},
			rand.New(rand.NewSource(1)), 1).(BatchOracle)
		var got int
		var err error
		if point {
			var labels [][]int
			labels, err = r.PointQueryBatch(ids)
			got = len(labels)
			for i, l := range labels {
				if !slices.Equal(l, scriptedPoint(ids[i])) {
					t.Fatalf("label %d = %v, want %v", i, l, scriptedPoint(ids[i]))
				}
			}
		} else {
			var answers []bool
			answers, err = r.SetQueryBatch(reqs)
			got = len(answers)
			for i, a := range answers {
				if a != scriptedSet(ids[i]) {
					t.Fatalf("answer %d = %v, want %v", i, a, scriptedSet(ids[i]))
				}
			}
		}
		spent := slices.Max(inner.fails) >= maxAttempts
		if (err != nil) != spent {
			t.Fatalf("err = %v with per-request failures %v, want failure %v", err, inner.fails, spent)
		}
		if err != nil && (!errors.Is(err, ErrTransient) || !inner.lastErr || inner.fails[inner.answered] != maxAttempts) {
			t.Fatalf("err = %v, want the transient failure of the query that failed %d times, then no call",
				err, maxAttempts)
		}
		if got != inner.answered || (err == nil && got != n) {
			t.Fatalf("%d answers returned, %d of %d answered", got, inner.answered, n)
		}
	})
}
