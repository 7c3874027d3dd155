package dataset

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"imagecvg/internal/pattern"
)

func TestNewValidation(t *testing.T) {
	s := GenderSchema()
	if _, err := New(nil, nil); err == nil {
		t.Error("nil schema: want error")
	}
	if _, err := New(s, [][]int{{5}}); err == nil {
		t.Error("bad label: want error")
	}
	if _, err := New(s, [][]int{{0, 1}}); err == nil {
		t.Error("bad arity: want error")
	}
	d, err := New(s, [][]int{{0}, {1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 {
		t.Errorf("Size = %d, want 3", d.Size())
	}
}

func TestLabelsAreCopied(t *testing.T) {
	s := GenderSchema()
	src := [][]int{{0}, {1}}
	d := MustNew(s, src)
	src[0][0] = 1
	if d.At(0).Labels[0] != 0 {
		t.Error("New must deep-copy label vectors")
	}
}

func TestLabelAppendLeavesNeighbourAlone(t *testing.T) {
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1", "2"}},
	)
	d := MustFromCounts(s, []int{2, 3, 1, 2, 4, 2}, nil)
	if &d.At(0).Labels[0] != &d.At(1).Labels[0] {
		t.Fatal("objects 0 and 1 of subgroup 0 do not share a label row")
	}
	want := make([][]int, d.Size())
	for i := range want {
		want[i] = slices.Clone(d.At(i).Labels)
	}
	for i := 0; i < d.Size(); i++ {
		if grown := append(d.At(i).Labels, 9, 9); len(grown) != s.NumAttrs()+2 {
			t.Fatalf("append grew object %d's labels to %v", i, grown)
		}
		for j := range want {
			if !slices.Equal(d.At(j).Labels, want[j]) {
				t.Fatalf("appending to object %d changed object %d: %v, want %v", i, j, d.At(j).Labels, want[j])
			}
		}
	}
}

// FromCounts groups its input by subgroup, so its dataset holds one
// label row per nonempty subgroup, which a shuffle keeps.
func TestFromCountsSharesOneRowPerSubgroup(t *testing.T) {
	s := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1", "2"}},
	)
	counts := []int{50, 0, 7, 1, 30, 12}
	d := MustFromCounts(s, counts, rand.New(rand.NewSource(3)))
	rows := make(map[*int]int)
	for i := 0; i < d.Size(); i++ {
		o := d.At(i)
		k, ok := d.Subgroup(o.ID)
		if !ok || !slices.Equal(o.Labels, pattern.SubgroupAt(s, k)) {
			t.Fatalf("object %d: Subgroup = %d, %v; labels %v", o.ID, k, ok, o.Labels)
		}
		if first, seen := rows[&o.Labels[0]]; seen && first != k {
			t.Fatalf("subgroups %d and %d share a label row", first, k)
		}
		rows[&o.Labels[0]] = k
	}
	if len(rows) != 5 {
		t.Errorf("%d label rows for 5 nonempty subgroups", len(rows))
	}
	if got := d.SubgroupCounts(); !slices.Equal(got, counts) {
		t.Errorf("SubgroupCounts = %v, want %v", got, counts)
	}
}

// New makes one allocation per array it keeps (the dataset, its
// objects, the ID and subgroup indexes, the label arena), however many
// objects it holds, and Subgroup makes none.
func TestNewAllocatesOncePerArray(t *testing.T) {
	s := GenderSchema()
	labels := make([][]int, 1000)
	for i := range labels {
		labels[i] = []int{i / 100 % 2}
	}
	if allocs := testing.AllocsPerRun(20, func() { MustNew(s, labels) }); allocs != 5 {
		t.Errorf("New allocates %v times, want 5", allocs)
	}
	d := MustNew(s, labels)
	if allocs := testing.AllocsPerRun(100, func() { d.Subgroup(500) }); allocs != 0 {
		t.Errorf("Subgroup allocates %v times per call", allocs)
	}
}

func TestNewRejectsTooManySubgroups(t *testing.T) {
	attrs := make([]pattern.Attribute, 31)
	for i := range attrs {
		attrs[i] = pattern.Attribute{Name: string(rune('a' + i)), Values: []string{"0", "1"}}
	}
	if _, err := New(pattern.MustSchema(attrs[:30]...), nil); err != nil {
		t.Errorf("2^30 subgroups: %v", err)
	}
	if _, err := New(pattern.MustSchema(attrs...), nil); err == nil {
		t.Error("2^31 subgroups: want error")
	}
}

func TestByIDAndTrueLabels(t *testing.T) {
	s := GenderSchema()
	d := MustNew(s, [][]int{{0}, {1}})
	o, ok := d.ByID(1)
	if !ok || o.Labels[0] != 1 {
		t.Errorf("ByID(1) = %v %v", o, ok)
	}
	for _, id := range []ObjectID{99, -1, ObjectID(d.Size()), 1 << 40, -1 << 40} {
		if _, ok := d.ByID(id); ok {
			t.Errorf("ByID(%d) must miss", id)
		}
		if _, ok := d.TrueLabels(id); ok {
			t.Errorf("TrueLabels(%d) must miss", id)
		}
	}
	l, ok := d.TrueLabels(0)
	if !ok || l[0] != 0 {
		t.Errorf("TrueLabels(0) = %v %v", l, ok)
	}
}

func TestShufflePreservesIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := BinaryWithMinority(100, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := map[ObjectID]int{}
	for i := 0; i < d.Size(); i++ {
		o := d.At(i)
		before[o.ID] = o.Labels[0]
	}
	d.Shuffle(rng)
	for i := 0; i < d.Size(); i++ {
		o := d.At(i)
		if before[o.ID] != o.Labels[0] {
			t.Fatalf("object %d changed labels after shuffle", o.ID)
		}
		got, ok := d.ByID(o.ID)
		if !ok || got.ID != o.ID {
			t.Fatalf("byID index stale for %d", o.ID)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, _ := BinaryWithMinority(50, 5, rng)
	ids := d.Sample(20, rng)
	seen := map[ObjectID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate sample %d", id)
		}
		seen[id] = true
		if _, ok := d.ByID(id); !ok {
			t.Fatalf("sampled unknown id %d", id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Sample(k>N) must panic")
		}
	}()
	d.Sample(51, rng)
}

func TestCountsAndCoverage(t *testing.T) {
	s := GenderSchema()
	rng := rand.New(rand.NewSource(3))
	d, _ := FromCounts(s, []int{30, 12}, rng)
	fem := Female(s)
	if got := d.CountGroup(fem); got != 12 {
		t.Errorf("CountGroup(female) = %d, want 12", got)
	}
	if got := d.CountPattern(pattern.MustPattern(s, 0)); got != 30 {
		t.Errorf("CountPattern(male) = %d, want 30", got)
	}
	if !d.Covered(fem, 12) || d.Covered(fem, 13) {
		t.Error("Covered threshold wrong")
	}
	sc := d.SubgroupCounts()
	if sc[0] != 30 || sc[1] != 12 {
		t.Errorf("SubgroupCounts = %v", sc)
	}
}

func TestFromCountsValidation(t *testing.T) {
	s := GenderSchema()
	if _, err := FromCounts(s, []int{1}, nil); err == nil {
		t.Error("short counts: want error")
	}
	if _, err := FromCounts(s, []int{1, -1}, nil); err == nil {
		t.Error("negative count: want error")
	}
	d, err := FromCounts(s, []int{2, 3}, nil)
	if err != nil || d.Size() != 5 {
		t.Fatalf("FromCounts: %v %v", d, err)
	}
	// nil rng keeps subgroup blocks in order.
	if d.At(0).Labels[0] != 0 || d.At(4).Labels[0] != 1 {
		t.Error("nil rng must preserve block order")
	}
}

func TestFromProportions(t *testing.T) {
	s := GenderSchema()
	rng := rand.New(rand.NewSource(4))
	d, err := FromProportions(s, 10000, []float64{3, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := d.CountGroup(Female(s))
	if f < 2200 || f > 2800 {
		t.Errorf("female count %d far from expectation 2500", f)
	}
	if _, err := FromProportions(s, 10, []float64{1}, rng); err == nil {
		t.Error("short proportions: want error")
	}
	if _, err := FromProportions(s, 10, []float64{-1, 2}, rng); err == nil {
		t.Error("negative proportion: want error")
	}
	if _, err := FromProportions(s, 10, []float64{0, 0}, rng); err == nil {
		t.Error("all-zero proportions: want error")
	}
}

func TestBinaryWithMinorityValidation(t *testing.T) {
	if _, err := BinaryWithMinority(10, 11, nil); err == nil {
		t.Error("minority > n: want error")
	}
	if _, err := BinaryWithMinority(10, -1, nil); err == nil {
		t.Error("negative minority: want error")
	}
}

func TestPresets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		p       Preset
		n, fems int
	}{
		{FERETTable1, 1522, 215},
		{FERETUnique, 994, 403},
		{UTKFace200, 3000, 200},
		{UTKFace20, 3000, 20},
	}
	for _, tc := range cases {
		d := tc.p.Generate(rng)
		if d.Size() != tc.n {
			t.Errorf("%s: size = %d, want %d", tc.p.Name, d.Size(), tc.n)
		}
		if got := d.CountGroup(Female(d.Schema())); got != tc.fems {
			t.Errorf("%s: females = %d, want %d", tc.p.Name, got, tc.fems)
		}
		if tc.p.Size() != tc.n {
			t.Errorf("%s: Size() = %d, want %d", tc.p.Name, tc.p.Size(), tc.n)
		}
		if tc.p.String() == "" {
			t.Error("empty preset string")
		}
	}
}

func TestSlice(t *testing.T) {
	s := GenderSchema()
	d := MustNew(s, [][]int{{0}, {1}, {0}, {1}})
	sub, err := d.Slice([]ObjectID{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 2 || sub.At(0).ID != 3 || sub.At(1).ID != 0 {
		t.Errorf("Slice wrong: %v", sub.IDs())
	}
	// IDs 1 and 2 lie below the slice's largest ID but are not in it.
	for _, id := range []ObjectID{1, 2, -1, 4, 1 << 40} {
		if _, ok := sub.ByID(id); ok {
			t.Errorf("slice ByID(%d) must miss", id)
		}
	}
	for _, id := range []ObjectID{3, 0} {
		if o, ok := sub.ByID(id); !ok || o.ID != id {
			t.Errorf("slice ByID(%d) = %v, %v", id, o, ok)
		}
	}
	for _, ids := range [][]ObjectID{{99}, {-1}, {ObjectID(d.Size())}, {1 << 40}, {0, -1 << 40}} {
		if _, err := d.Slice(ids); err == nil {
			t.Errorf("unknown id in %v: want error", ids)
		}
	}
	if _, err := d.Slice([]ObjectID{0, 0}); err == nil {
		t.Error("duplicate id: want error")
	}
	if _, err := sub.Slice([]ObjectID{1}); err == nil {
		t.Error("id missing from the slice: want error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, _ := BinaryWithMinority(40, 7, rng)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != d.Size() {
		t.Fatalf("size = %d, want %d", got.Size(), d.Size())
	}
	for i := 0; i < d.Size(); i++ {
		if got.At(i).Labels[0] != d.At(i).Labels[0] {
			t.Fatalf("label %d differs after round trip", i)
		}
	}
	if _, err := ReadJSON(bytes.NewBufferString("{broken")); err == nil {
		t.Error("broken JSON: want error")
	}
}

func TestJSONFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, _ := BinaryWithMinority(10, 2, rng)
	path := t.TempDir() + "/ds.json"
	if err := d.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 10 {
		t.Errorf("size = %d", got.Size())
	}
	if _, err := LoadJSON(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file: want error")
	}
}

func TestWriteCSV(t *testing.T) {
	s := GenderSchema()
	d := MustNew(s, [][]int{{0}, {1}})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "id,gender\n0,male\n1,female\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestIDsMatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d, _ := BinaryWithMinority(30, 3, rng)
	ids := d.IDs()
	for i, id := range ids {
		if d.At(i).ID != id {
			t.Fatalf("IDs()[%d] = %d, At(%d).ID = %d", i, id, i, d.At(i).ID)
		}
	}
}

func TestCompositionInvariantQuick(t *testing.T) {
	// Property: FromCounts always realizes the exact composition,
	// regardless of seed and counts.
	s := GenderSchema()
	f := func(seed int64, males, females uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := FromCounts(s, []int{int(males), int(females)}, rng)
		if err != nil {
			return false
		}
		sc := d.SubgroupCounts()
		return sc[0] == int(males) && sc[1] == int(females)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
