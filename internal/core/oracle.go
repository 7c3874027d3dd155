package core

import (
	"errors"
	"fmt"
	"sync"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// Oracle answers the three HIT types of the paper (section 2.3).
// Implementations are expected to be expensive — every call is a crowd
// task — so algorithms minimize calls and count them.
type Oracle interface {
	// SetQuery reports whether at least one of the objects belongs to
	// group g (Figure 2 of the paper).
	SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error)
	// ReverseSetQuery reports whether at least one of the objects does
	// NOT belong to group g (the verification question of section 5).
	ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error)
	// PointQuery returns the attribute values of a single object
	// (Figure 1 of the paper).
	PointQuery(id dataset.ObjectID) ([]int, error)
}

// TaskCounts tallies oracle calls by HIT type.
type TaskCounts struct {
	Point, Set, ReverseSet int
}

// Total returns the combined number of tasks.
func (t TaskCounts) Total() int { return t.Point + t.Set + t.ReverseSet }

// String implements fmt.Stringer.
func (t TaskCounts) String() string {
	return fmt.Sprintf("tasks=%d (point=%d set=%d reverse=%d)", t.Total(), t.Point, t.Set, t.ReverseSet)
}

// TruthOracle answers every query from ground truth with no noise and
// no redundancy. It reproduces the paper's synthetic "simulation of
// the crowd" (section 6.5) and doubles as the reference oracle in
// tests. It also counts tasks and is safe for concurrent use (a
// worker pool may answer a round's queries in parallel).
type TruthOracle struct {
	ds *dataset.Dataset

	mu     sync.Mutex
	counts TaskCounts
}

// NewTruthOracle builds a perfect oracle over the dataset.
func NewTruthOracle(ds *dataset.Dataset) *TruthOracle {
	return &TruthOracle{ds: ds}
}

// SetQuery implements Oracle.
func (o *TruthOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	if len(ids) == 0 {
		return false, errors.New("core: empty set query")
	}
	o.mu.Lock()
	o.counts.Set++
	o.mu.Unlock()
	for _, id := range ids {
		labels, ok := o.ds.TrueLabels(id)
		if !ok {
			return false, fmt.Errorf("core: unknown object %d", id)
		}
		if g.Matches(labels) {
			return true, nil
		}
	}
	return false, nil
}

// ReverseSetQuery implements Oracle.
func (o *TruthOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	if len(ids) == 0 {
		return false, errors.New("core: empty reverse set query")
	}
	o.mu.Lock()
	o.counts.ReverseSet++
	o.mu.Unlock()
	for _, id := range ids {
		labels, ok := o.ds.TrueLabels(id)
		if !ok {
			return false, fmt.Errorf("core: unknown object %d", id)
		}
		if !g.Matches(labels) {
			return true, nil
		}
	}
	return false, nil
}

// PointQuery implements Oracle.
func (o *TruthOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	o.mu.Lock()
	o.counts.Point++
	o.mu.Unlock()
	labels, ok := o.ds.TrueLabels(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown object %d", id)
	}
	out := make([]int, len(labels))
	copy(out, labels)
	return out, nil
}

// SetQueryBatch implements BatchOracle natively: ground-truth answers
// depend only on the request, so the batch is answered in place with
// no worker pool.
func (o *TruthOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	answers := make([]bool, len(reqs))
	for i, req := range reqs {
		var err error
		if req.Reverse {
			answers[i], err = o.ReverseSetQuery(req.IDs, req.Group)
		} else {
			answers[i], err = o.SetQuery(req.IDs, req.Group)
		}
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// PointQueryBatch implements BatchOracle natively.
func (o *TruthOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	labels := make([][]int, len(ids))
	for i, id := range ids {
		var err error
		labels[i], err = o.PointQuery(id)
		if err != nil {
			return nil, err
		}
	}
	return labels, nil
}

// Tasks returns the oracle's task tally.
func (o *TruthOracle) Tasks() TaskCounts {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counts
}

// Reset clears the task tally.
func (o *TruthOracle) Reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts = TaskCounts{}
}

// FlakyOracle wraps another oracle and fails every FailEvery-th call
// with ErrTransient, for failure-injection tests: algorithms must
// propagate oracle errors instead of mislabeling coverage. Safe for
// concurrent use when the inner oracle is.
type FlakyOracle struct {
	Inner     Oracle
	FailEvery int

	mu    sync.Mutex
	calls int
}

// ErrTransient is the error injected by FlakyOracle.
var ErrTransient = errors.New("core: transient crowd failure")

func (f *FlakyOracle) tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.FailEvery > 0 && f.calls%f.FailEvery == 0 {
		return ErrTransient
	}
	return nil
}

// SetQuery implements Oracle.
func (f *FlakyOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	if err := f.tick(); err != nil {
		return false, err
	}
	return f.Inner.SetQuery(ids, g)
}

// ReverseSetQuery implements Oracle.
func (f *FlakyOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	if err := f.tick(); err != nil {
		return false, err
	}
	return f.Inner.ReverseSetQuery(ids, g)
}

// PointQuery implements Oracle.
func (f *FlakyOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	return f.Inner.PointQuery(id)
}

// LabeledSet is the set L of section 4: objects whose attribute values
// the audit has already paid to learn. Moving objects into L prevents
// labeling them twice across algorithm phases.
type LabeledSet struct {
	labels map[dataset.ObjectID][]int
}

// NewLabeledSet returns an empty labeled set.
func NewLabeledSet() *LabeledSet {
	return &LabeledSet{labels: make(map[dataset.ObjectID][]int)}
}

// Add records the labels of one object, overwriting any previous entry.
func (l *LabeledSet) Add(id dataset.ObjectID, labels []int) {
	cp := make([]int, len(labels))
	copy(cp, labels)
	l.labels[id] = cp
}

// Has reports whether the object is labeled.
func (l *LabeledSet) Has(id dataset.ObjectID) bool {
	_, ok := l.labels[id]
	return ok
}

// Labels returns the recorded labels of one object.
func (l *LabeledSet) Labels(id dataset.ObjectID) ([]int, bool) {
	v, ok := l.labels[id]
	return v, ok
}

// Len returns |L|.
func (l *LabeledSet) Len() int { return len(l.labels) }

// Count returns L.count(g): how many labeled objects belong to g.
func (l *LabeledSet) Count(g pattern.Group) int {
	n := 0
	//lint:ordered commutative integer count; no per-element effects escape the loop
	for _, labels := range l.labels {
		if g.Matches(labels) {
			n++
		}
	}
	return n
}
