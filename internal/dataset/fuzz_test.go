package dataset

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"imagecvg/internal/pattern"
)

// FuzzReadJSON hardens the dataset loader: arbitrary bytes must either
// fail cleanly or produce a dataset that re-serializes and re-parses to
// the same composition. Seeds run in every plain `go test`.
func FuzzReadJSON(f *testing.F) {
	var good bytes.Buffer
	d := MustNew(GenderSchema(), [][]int{{0}, {1}, {0}})
	if err := d.WriteJSON(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"attributes":[],"labels":[]}`))
	f.Add([]byte(`{"attributes":[{"name":"g","values":["a","b"]}],"labels":[[5]]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ds.WriteJSON(&buf); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Size() != ds.Size() {
			t.Fatalf("round trip changed size %d -> %d", ds.Size(), again.Size())
		}
	})
}

// FuzzDatasetIndex drives random Shuffle and Slice sequences and checks
// ByID and Subgroup against a map from each ID the dataset holds to its
// subgroup, probing random IDs, negative and far out of range ones
// included. The label vectors come in runs of equal vectors, so
// neighbouring objects share label rows. Slices take a random subset of
// the held IDs, sometimes with a random ID put in front, and must fail
// exactly when that ID is not held or repeats one of the subset.
func FuzzDatasetIndex(f *testing.F) {
	f.Add(uint8(10), int64(1), []byte{0, 1, 2, 3})
	f.Add(uint8(0), int64(2), []byte{1, 2, 1})
	f.Add(uint8(1), int64(3), []byte{2, 0, 1, 1})
	f.Add(uint8(200), int64(4), []byte{1, 0, 1, 0, 1, 2, 1, 1})
	f.Fuzz(func(t *testing.T, n uint8, seed int64, ops []byte) {
		s := pattern.MustSchema(
			pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
			pattern.Attribute{Name: "b", Values: []string{"0", "1", "2"}},
		)
		rng := rand.New(rand.NewSource(seed))
		labels := make([][]int, n)
		ref := make(map[ObjectID]int, n)
		for i := 0; i < len(labels); {
			k := rng.Intn(s.NumSubgroups())
			for end := min(i+1+rng.Intn(4), len(labels)); i < end; i++ {
				labels[i] = []int(pattern.SubgroupAt(s, k))
				ref[ObjectID(i)] = k
			}
		}
		d := MustNew(s, labels)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				d.Shuffle(rng)
			case 1, 2:
				held := d.IDs()
				rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
				ids := held[:rng.Intn(len(held)+1)]
				bad := false
				if op%3 == 2 {
					extra := randomID(rng, int(n))
					_, known := ref[extra]
					bad = !known || slices.Contains(ids, extra)
					ids = append([]ObjectID{extra}, ids...)
				}
				sub, err := d.Slice(ids)
				if bad {
					if err == nil {
						t.Fatalf("Slice(%v) accepted a missing or repeated ID", ids)
					}
					continue
				}
				if err != nil {
					t.Fatalf("Slice(%v): %v", ids, err)
				}
				kept := make(map[ObjectID]int, len(ids))
				for _, id := range ids {
					kept[id] = ref[id]
				}
				d, ref = sub, kept
			}
			checkIndex(t, d, ref, rng, int(n))
		}
		checkIndex(t, d, ref, rng, int(n))
	})
}

// randomID returns an ID in [-3, 2n+3), occasionally one far outside.
func randomID(rng *rand.Rand, n int) ObjectID {
	switch rng.Intn(8) {
	case 0:
		return 1 << 40
	case 1:
		return -1 << 40
	}
	return ObjectID(rng.Intn(2*n+6) - 3)
}

// checkIndex compares d against ref, which maps each held ID to its
// subgroup: the same size, every position's object found by its ID
// with the reference's labels, Subgroup equal to the subgroup index of
// TrueLabels, and random IDs found by both exactly when ref holds them.
func checkIndex(t *testing.T, d *Dataset, ref map[ObjectID]int, rng *rand.Rand, n int) {
	t.Helper()
	if d.Size() != len(ref) {
		t.Fatalf("Size() = %d, reference holds %d", d.Size(), len(ref))
	}
	s := d.Schema()
	for i := 0; i < d.Size(); i++ {
		o := d.At(i)
		got, ok := d.ByID(o.ID)
		want, held := ref[o.ID]
		if !held || !ok || got.ID != o.ID || !slices.Equal(got.Labels, pattern.SubgroupAt(s, want)) {
			t.Fatalf("position %d: ByID(%d) = %v, %v; reference subgroup %d, %v", i, o.ID, got, ok, want, held)
		}
		labels, _ := d.TrueLabels(o.ID)
		if k, ok := d.Subgroup(o.ID); !ok || k != pattern.SubgroupIndex(s, pattern.Pattern(labels)) || k != want {
			t.Fatalf("position %d: Subgroup(%d) = %d, %v; labels %v, reference %d", i, o.ID, k, ok, labels, want)
		}
	}
	for range 16 {
		id := randomID(rng, n)
		got, ok := d.ByID(id)
		k, inSub := d.Subgroup(id)
		want, held := ref[id]
		if ok != held || inSub != held || ok && (got.ID != id || k != want) {
			t.Fatalf("ByID(%d) = %v, %v; Subgroup = %d, %v; reference %d, %v", id, got, ok, k, inSub, want, held)
		}
	}
}
