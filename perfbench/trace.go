package main

import (
	"sync"
	"time"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/journal"
	"imagecvg/internal/pattern"
)

// This file holds the timing shims of the traced run. They live only
// in the benchmark: a shim sits between two adjacent layers of an
// oracle stack, forwards every call unchanged, and records the span of
// the layer below it. Lockstep commits one batch at a time, so the
// spans of one stack nest strictly, and a layer's self time is its
// inclusive time minus that of the layer directly below it.

// span accumulates the calls one shim saw.
type span struct {
	mu      sync.Mutex
	calls   int           // batch (or single-query) calls
	setReqs int           // set and reverse-set requests forwarded
	points  int           // point requests forwarded
	setTime time.Duration // inclusive time in set calls
	ptTime  time.Duration // inclusive time in point calls
}

// total returns the inclusive time of every call.
func (s *span) total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setTime + s.ptTime
}

func (s *span) add(point bool, reqs int, d time.Duration) {
	s.mu.Lock()
	s.calls++
	if point {
		s.points += reqs
		s.ptTime += d
	} else {
		s.setReqs += reqs
		s.setTime += d
	}
	s.mu.Unlock()
}

// shim is a BatchOracle that times the oracle below it.
type shim struct {
	inner core.BatchOracle
	sp    *span
}

// newShim wraps inner, lifting it with AsBatchOracle at width so the
// middleware below still inherits the engine's batch width the way it
// would without the shim in between.
func newShim(inner core.Oracle, width int, sp *span) *shim {
	return &shim{inner: core.AsBatchOracle(inner, width), sp: sp}
}

// SetQueryBatch implements core.BatchOracle.
func (s *shim) SetQueryBatch(reqs []core.SetRequest) ([]bool, error) {
	t0 := time.Now()
	ans, err := s.inner.SetQueryBatch(reqs)
	s.sp.add(false, len(reqs), time.Since(t0))
	return ans, err
}

// PointQueryBatch implements core.BatchOracle.
func (s *shim) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	t0 := time.Now()
	labels, err := s.inner.PointQueryBatch(ids)
	s.sp.add(true, len(ids), time.Since(t0))
	return labels, err
}

// SetQuery implements core.Oracle.
func (s *shim) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	t0 := time.Now()
	ans, err := s.inner.SetQuery(ids, g)
	s.sp.add(false, 1, time.Since(t0))
	return ans, err
}

// ReverseSetQuery implements core.Oracle.
func (s *shim) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	t0 := time.Now()
	ans, err := s.inner.ReverseSetQuery(ids, g)
	s.sp.add(false, 1, time.Since(t0))
	return ans, err
}

// PointQuery implements core.Oracle.
func (s *shim) PointQuery(id dataset.ObjectID) ([]int, error) {
	t0 := time.Now()
	labels, err := s.inner.PointQuery(id)
	s.sp.add(true, 1, time.Since(t0))
	return labels, err
}

// timedJournal is the core.RoundJournal wrapper around the file
// journal: it records each append's latency (encode, CRC, write and
// fsync) in order.
type timedJournal struct {
	inner   *journal.Journal
	appends []time.Duration
}

// Append implements core.RoundJournal.
func (t *timedJournal) Append(rec core.RoundRecord) error {
	t0 := time.Now()
	err := t.inner.Append(rec)
	t.appends = append(t.appends, time.Since(t0))
	return err
}
