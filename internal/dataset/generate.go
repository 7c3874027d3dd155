package dataset

import (
	"fmt"
	"math/rand"

	"imagecvg/internal/pattern"
)

// FromCounts generates a dataset with an exact composition: counts[i]
// objects in the i-th fully-specified subgroup (pattern.SubgroupIndex
// order), shuffled with rng. A nil rng leaves the blocks in subgroup
// order, which is occasionally useful for deterministic tests.
func FromCounts(s *pattern.Schema, counts []int, rng *rand.Rand) (*Dataset, error) {
	if len(counts) != s.NumSubgroups() {
		return nil, fmt.Errorf("dataset: got %d counts, schema has %d subgroups", len(counts), s.NumSubgroups())
	}
	total := 0
	for idx, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("dataset: negative count %d for subgroup %d", c, idx)
		}
		total += c
	}
	// Objects of one subgroup share its label vector and come in one
	// run, so New copies one row per nonempty subgroup into the
	// dataset's arena.
	labels := make([][]int, 0, total)
	for idx, c := range counts {
		p := []int(pattern.SubgroupAt(s, idx))
		for i := 0; i < c; i++ {
			labels = append(labels, p)
		}
	}
	d, err := New(s, labels)
	if err != nil {
		return nil, err
	}
	if rng != nil {
		d.Shuffle(rng)
	}
	return d, nil
}

// MustFromCounts is FromCounts panicking on error.
func MustFromCounts(s *pattern.Schema, counts []int, rng *rand.Rand) *Dataset {
	d, err := FromCounts(s, counts, rng)
	if err != nil {
		panic(err)
	}
	return d
}

// FromProportions generates n objects whose subgroup is drawn i.i.d.
// from the given proportions (normalized internally). Composition is
// random, not exact.
func FromProportions(s *pattern.Schema, n int, props []float64, rng *rand.Rand) (*Dataset, error) {
	if len(props) != s.NumSubgroups() {
		return nil, fmt.Errorf("dataset: got %d proportions, schema has %d subgroups", len(props), s.NumSubgroups())
	}
	total := 0.0
	for i, p := range props {
		if p < 0 {
			return nil, fmt.Errorf("dataset: negative proportion %f at %d", p, i)
		}
		total += p
	}
	if total == 0 {
		return nil, fmt.Errorf("dataset: all proportions zero")
	}
	labels := make([][]int, n)
	for i := 0; i < n; i++ {
		r := rng.Float64() * total
		idx := 0
		for j, p := range props {
			r -= p
			if r < 0 {
				idx = j
				break
			}
		}
		labels[i] = []int(pattern.SubgroupAt(s, idx))
	}
	return New(s, labels)
}

// GenderSchema is the single-binary-attribute schema used throughout
// the paper's experiments: gender with male (0) and female (1).
func GenderSchema() *pattern.Schema { return pattern.Binary("gender", "male", "female") }

// Female returns the minority group of the gender schema.
func Female(s *pattern.Schema) pattern.Group {
	return pattern.GroupOf("female", pattern.MustPattern(s, 1))
}

// Male returns the majority group of the gender schema.
func Male(s *pattern.Schema) pattern.Group {
	return pattern.GroupOf("male", pattern.MustPattern(s, 0))
}

// BinaryWithMinority generates a gender dataset with exactly minority
// females and n-minority males, shuffled.
func BinaryWithMinority(n, minority int, rng *rand.Rand) (*Dataset, error) {
	if minority < 0 || minority > n {
		return nil, fmt.Errorf("dataset: minority %d out of range for n=%d", minority, n)
	}
	s := GenderSchema()
	return FromCounts(s, []int{n - minority, minority}, rng)
}

// --- Paper dataset presets -------------------------------------------------
//
// The paper evaluates on slices of FERET and UTKFace with published
// gender compositions. Only the composition matters to the algorithms,
// so the presets reproduce exactly those counts.

// Preset names a dataset composition used in the paper's evaluation.
type Preset struct {
	Name    string
	Females int
	Males   int
}

// Paper preset compositions (Table 1 and Table 2).
var (
	// FERETTable1 is the MTurk slice: females=215, males=1307.
	FERETTable1 = Preset{Name: "FERET (Table 1 slice)", Females: 215, Males: 1307}
	// FERETUnique is the unique-individual slice: females=403, males=591.
	FERETUnique = Preset{Name: "FERET DB", Females: 403, Males: 591}
	// UTKFace200 is the covered UTKFace slice: females=200, males=2800.
	UTKFace200 = Preset{Name: "UTKFace (200F)", Females: 200, Males: 2800}
	// UTKFace20 is the uncovered UTKFace slice: females=20, males=2980.
	UTKFace20 = Preset{Name: "UTKFace (20F)", Females: 20, Males: 2980}
)

// Size returns the preset's total object count.
func (p Preset) Size() int { return p.Females + p.Males }

// Generate materializes the preset as a shuffled dataset.
func (p Preset) Generate(rng *rand.Rand) *Dataset {
	d, err := BinaryWithMinority(p.Size(), p.Females, rng)
	if err != nil {
		panic(err) // presets are statically valid
	}
	return d
}

// String implements fmt.Stringer.
func (p Preset) String() string {
	return fmt.Sprintf("%s (females=%d, males=%d)", p.Name, p.Females, p.Males)
}
