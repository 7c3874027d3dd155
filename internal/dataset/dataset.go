// Package dataset models the unlabeled image collections the paper
// audits: every object carries hidden ground-truth demographic labels
// that the auditing algorithms must never read directly — only the
// crowd simulator (or a perfect oracle standing in for it) may look at
// them. The package also provides the synthetic generators used by the
// experiments, including compositions matching the FERET and UTKFace
// slices reported in the paper.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"imagecvg/internal/pattern"
)

// ObjectID identifies one object (image) of a dataset. IDs are stable
// under shuffling: they name the object, not its position.
type ObjectID int

// Object is a single image with its hidden ground-truth labels (one
// value index per schema attribute). Labels is a read-only row that
// the object may share with other objects of its subgroup; writing
// into it changes their labels too.
type Object struct {
	ID     ObjectID
	Labels []int
}

// Dataset is an ordered collection of objects over a schema of
// attributes of interest. The order matters: the divide-and-conquer
// algorithms issue set queries over contiguous index ranges, so a
// shuffle changes which objects share a query.
//
// Objects built from consecutive equal label vectors share one label
// row, so the rows are read-only. The dataset also keeps each object's
// subgroup (template) index, computed once when the labels are
// validated; see Subgroup.
type Dataset struct {
	schema  *pattern.Schema
	objects []Object
	byID    []int32 // position of the object with each ID; -1 for an absent ID
	sub     []int32 // pattern.SubgroupIndex of each ID's labels; meaningless for an absent ID
}

// New builds a dataset whose i-th object gets ID i and the i-th label
// vector. Label vectors are validated against the schema and indexed
// by subgroup in one pass; a second pass copies one row per run of
// consecutive equal vectors into an arena shared by the whole dataset.
// The objects of a run share the row as a capacity-limited window of
// the arena, so an append to one object's labels reallocates instead
// of writing into a neighbour's row. Input grouped by subgroup, as
// FromCounts builds it, needs at most one row per subgroup.
func New(s *pattern.Schema, labels [][]int) (*Dataset, error) {
	if s == nil {
		return nil, errors.New("dataset: nil schema")
	}
	if len(labels) > math.MaxInt32 {
		return nil, fmt.Errorf("dataset: %d objects exceed the %d a dataset indexes", len(labels), math.MaxInt32)
	}
	subgroups := 1
	for i := range s.NumAttrs() {
		if subgroups *= s.Attr(i).Cardinality(); subgroups > math.MaxInt32 {
			return nil, fmt.Errorf("dataset: schema has more than the %d subgroups a dataset indexes", math.MaxInt32)
		}
	}
	d := &Dataset{
		schema:  s,
		objects: make([]Object, len(labels)),
		byID:    make([]int32, len(labels)),
		sub:     make([]int32, len(labels)),
	}
	runs := 0
	for i, l := range labels {
		if !s.ValidLabels(l) {
			return nil, fmt.Errorf("dataset: object %d has invalid labels %v", i, l)
		}
		d.sub[i] = int32(pattern.SubgroupIndex(s, pattern.Pattern(l)))
		if i == 0 || d.sub[i] != d.sub[i-1] {
			runs++
		}
	}
	width := s.NumAttrs()
	arena := make([]int, runs*width)
	var row []int
	for i, l := range labels {
		if i == 0 || d.sub[i] != d.sub[i-1] {
			row, arena = arena[:width:width], arena[width:]
			copy(row, l)
		}
		d.objects[i] = Object{ID: ObjectID(i), Labels: row}
		d.byID[i] = int32(i)
	}
	return d, nil
}

// MustNew is like New but panics on error; for tests and examples.
func MustNew(s *pattern.Schema, labels [][]int) *Dataset {
	d, err := New(s, labels)
	if err != nil {
		panic(err)
	}
	return d
}

// Schema returns the dataset's attribute schema.
func (d *Dataset) Schema() *pattern.Schema { return d.schema }

// Size returns N, the number of objects.
func (d *Dataset) Size() int { return len(d.objects) }

// At returns the object at position i in the current order.
func (d *Dataset) At(i int) Object { return d.objects[i] }

// ByID returns the object with the given ID, or false when the
// dataset holds no object with that ID (negative and out-of-range IDs
// included).
func (d *Dataset) ByID(id ObjectID) (Object, bool) {
	if id < 0 || id >= ObjectID(len(d.byID)) || d.byID[id] < 0 {
		return Object{}, false
	}
	return d.objects[d.byID[id]], true
}

// Subgroup returns the subgroup (template) index of an object's labels,
// pattern.SubgroupIndex of TrueLabels(id), or false when the dataset
// holds no object with that ID. Like TrueLabels it reads ground truth,
// so audit algorithms must not call it. It does not allocate.
func (d *Dataset) Subgroup(id ObjectID) (int, bool) {
	if id < 0 || id >= ObjectID(len(d.byID)) || d.byID[id] < 0 {
		return 0, false
	}
	return int(d.sub[id]), true
}

// TrueLabels returns the hidden ground-truth labels of an object.
// Only oracles (crowd simulator, classifiers, evaluation code) should
// call this; audit algorithms must not.
func (d *Dataset) TrueLabels(id ObjectID) ([]int, bool) {
	o, ok := d.ByID(id)
	if !ok {
		return nil, false
	}
	return o.Labels, true
}

// IDs returns the object IDs in the current dataset order.
func (d *Dataset) IDs() []ObjectID {
	out := make([]ObjectID, len(d.objects))
	for i, o := range d.objects {
		out[i] = o.ID
	}
	return out
}

// Shuffle permutes the object order in place with the given source of
// randomness. IDs are preserved; only positions change.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.objects), func(i, j int) {
		d.objects[i], d.objects[j] = d.objects[j], d.objects[i]
	})
	for i, o := range d.objects {
		d.byID[o.ID] = int32(i)
	}
}

// Sample returns k distinct object IDs drawn uniformly without
// replacement. It panics if k exceeds the dataset size.
func (d *Dataset) Sample(k int, rng *rand.Rand) []ObjectID {
	if k > len(d.objects) {
		panic(fmt.Sprintf("dataset: sample %d from %d objects", k, len(d.objects)))
	}
	perm := rng.Perm(len(d.objects))[:k]
	out := make([]ObjectID, k)
	for i, p := range perm {
		out[i] = d.objects[p].ID
	}
	return out
}

// CountGroup returns the ground-truth number of objects in the group.
// Evaluation-only: audit algorithms must obtain counts via queries.
func (d *Dataset) CountGroup(g pattern.Group) int {
	n := 0
	for _, o := range d.objects {
		if g.Matches(o.Labels) {
			n++
		}
	}
	return n
}

// CountPattern returns the ground-truth number of objects matching p.
func (d *Dataset) CountPattern(p pattern.Pattern) int {
	return d.CountGroup(pattern.Group{Members: []pattern.Pattern{p}})
}

// PredictedSet builds a classifier-style predicted-positive set from
// ground truth: the first tp members of g and the first fp non-members,
// in dataset order, with both counts clamped to the composition.
// Evaluation-only, like CountGroup: tests and harnesses shape simulated
// predictions with it (classifier.Simulated realizes full confusion
// matrices when randomized placement matters).
func (d *Dataset) PredictedSet(g pattern.Group, tp, fp int) []ObjectID {
	var members, others []ObjectID
	for _, o := range d.objects {
		if g.Matches(o.Labels) {
			members = append(members, o.ID)
		} else {
			others = append(others, o.ID)
		}
	}
	tp = min(max(tp, 0), len(members))
	fp = min(max(fp, 0), len(others))
	out := make([]ObjectID, 0, tp+fp)
	out = append(out, members[:tp]...)
	return append(out, others[:fp]...)
}

// SubgroupCounts returns ground-truth counts for every fully-specified
// subgroup, indexed by pattern.SubgroupIndex.
func (d *Dataset) SubgroupCounts() []int {
	counts := make([]int, d.schema.NumSubgroups())
	for _, o := range d.objects {
		counts[d.sub[o.ID]]++
	}
	return counts
}

// Covered reports ground-truth coverage of g at threshold tau.
func (d *Dataset) Covered(g pattern.Group, tau int) bool {
	return d.CountGroup(g) >= tau
}

// Slice returns a new dataset over the same schema containing only the
// objects with the given IDs (in the given order). IDs are preserved,
// and the objects share their label rows with d.
func (d *Dataset) Slice(ids []ObjectID) (*Dataset, error) {
	out := &Dataset{
		schema:  d.schema,
		objects: make([]Object, 0, len(ids)),
	}
	for _, id := range ids {
		o, ok := d.ByID(id)
		if !ok {
			return nil, fmt.Errorf("dataset: unknown object %d", id)
		}
		for ObjectID(len(out.byID)) <= id {
			out.byID = append(out.byID, -1)
			out.sub = append(out.sub, 0)
		}
		if out.byID[id] >= 0 {
			return nil, fmt.Errorf("dataset: duplicate object %d", id)
		}
		out.byID[id] = int32(len(out.objects))
		out.sub[id] = d.sub[id]
		out.objects = append(out.objects, o)
	}
	return out, nil
}
