package imagegen

import (
	"bytes"
	"fmt"
	"image/png"
	"math/rand"
	"slices"
	"testing"

	"imagecvg/internal/pattern"
)

func genderRace() *pattern.Schema {
	return pattern.MustSchema(
		pattern.Attribute{Name: "gender", Values: []string{"male", "female"}},
		pattern.Attribute{Name: "race", Values: []string{"white", "black", "hispanic", "asian"}},
	)
}

func TestNewRendererValidation(t *testing.T) {
	tooMany := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "c", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "d", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "e", Values: []string{"0", "1"}},
	)
	if _, err := NewRenderer(tooMany); err == nil {
		t.Error("5 attributes: want error")
	}
	wide := pattern.MustSchema(pattern.Attribute{
		Name: "a", Values: []string{"0", "1", "2", "3", "4", "5", "6"},
	})
	if _, err := NewRenderer(wide); err == nil {
		t.Error("cardinality 7: want error")
	}
	if _, err := NewRenderer(genderRace()); err != nil {
		t.Errorf("gender x race should render: %v", err)
	}
}

func TestCleanRoundTripAllSubgroups(t *testing.T) {
	schemas := []*pattern.Schema{
		pattern.Binary("gender", "male", "female"),
		genderRace(),
		pattern.MustSchema(
			pattern.Attribute{Name: "shape", Values: []string{"a", "b", "c", "d", "e", "f"}},
			pattern.Attribute{Name: "shade", Values: []string{"a", "b", "c", "d", "e", "f"}},
			pattern.Attribute{Name: "marks", Values: []string{"a", "b", "c", "d"}},
			pattern.Attribute{Name: "border", Values: []string{"a", "b", "c"}},
		),
	}
	for si, s := range schemas {
		r, err := NewRenderer(s)
		if err != nil {
			t.Fatalf("schema %d: %v", si, err)
		}
		for idx := 0; idx < s.NumSubgroups(); idx++ {
			labels := []int(pattern.SubgroupAt(s, idx))
			if got := r.Perceive(idx, 0, nil); got != idx {
				t.Fatalf("schema %d subgroup %v decoded as %v", si, labels, r.Labels(got))
			}
			if !slices.Equal(r.Labels(idx), labels) {
				t.Fatalf("schema %d: Labels(%d) = %v, want %v", si, idx, r.Labels(idx), labels)
			}
		}
	}
}

func TestNoisyRoundTripMostlyCorrect(t *testing.T) {
	// With moderate noise the decoder should almost always recover the
	// labels — the paper's premise that the tasks are easy for humans.
	s := genderRace()
	r, _ := NewRenderer(s)
	rng := rand.New(rand.NewSource(11))
	trials, correct := 500, 0
	for i := 0; i < trials; i++ {
		k := rng.Intn(s.NumSubgroups())
		if r.Perceive(k, 25, rng) == k {
			correct++
		}
	}
	if frac := float64(correct) / float64(trials); frac < 0.97 {
		t.Errorf("noisy decode accuracy %.3f, want >= 0.97", frac)
	}
}

func TestHeavyNoiseCausesErrors(t *testing.T) {
	// Sanity check that the noise channel is real: enormous noise must
	// produce at least some decoding mistakes.
	s := genderRace()
	r, _ := NewRenderer(s)
	rng := rand.New(rand.NewSource(12))
	errors := 0
	for i := 0; i < 300; i++ {
		k := rng.Intn(s.NumSubgroups())
		if r.Perceive(k, 300, rng) != k {
			errors++
		}
	}
	if errors == 0 {
		t.Error("noise 300 never flipped a decode; channel is fake")
	}
}

func TestPerceiveNoNoiseEqualsDecode(t *testing.T) {
	s := genderRace()
	r, _ := NewRenderer(s)
	k := pattern.SubgroupIndex(s, pattern.Pattern{1, 3})
	if got := r.Perceive(k, 0, nil); got != k || got != nearestGlyph(r, &r.templates[k]) {
		t.Errorf("Perceive = %v, want %v", r.Labels(got), r.Labels(k))
	}
}

func TestTemplatesDistinct(t *testing.T) {
	s := genderRace()
	r, _ := NewRenderer(s)
	for i := 0; i < s.NumSubgroups(); i++ {
		for j := i + 1; j < s.NumSubgroups(); j++ {
			if r.templates[i] == r.templates[j] {
				t.Errorf("subgroups %d and %d render identically", i, j)
			}
		}
	}
}

func TestPGMAndPNGEncoding(t *testing.T) {
	s := genderRace()
	r, _ := NewRenderer(s)
	k := pattern.SubgroupIndex(s, pattern.Pattern{0, 2})
	g := r.templates[k]

	var pgm bytes.Buffer
	if err := g.WritePGM(&pgm); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pgm.Bytes(), []byte("P5\n16 16\n255\n")) {
		t.Errorf("PGM header wrong: %q", pgm.Bytes()[:20])
	}
	if pgm.Len() != len("P5\n16 16\n255\n")+Size*Size {
		t.Errorf("PGM length = %d", pgm.Len())
	}

	var buf bytes.Buffer
	if err := g.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != Size || img.Bounds().Dy() != Size {
		t.Errorf("PNG bounds = %v", img.Bounds())
	}
}

func TestGlyphAccessors(t *testing.T) {
	var g Glyph
	g.Set(3, 5, 200)
	if g.At(3, 5) != 200 {
		t.Error("Set/At mismatch")
	}
	if g.Image().GrayAt(3, 5).Y != 200 {
		t.Error("Image() lost pixel")
	}
}

func TestClamp(t *testing.T) {
	if clamp8(-5) != 0 || clamp8(300) != 255 || clamp8(128) != 128 {
		t.Error("clamp8 wrong")
	}
}

// BenchmarkPerceive measures one worker's look at one image: a table
// lookup without noise, a perturbed copy and a decode with it. The
// gender schema's two templates differ in 4 pixels, gender x race's
// eight in many more.
func BenchmarkPerceive(b *testing.B) {
	schemas := []struct {
		name   string
		schema *pattern.Schema
	}{
		{"genderRace", genderRace()},
		{"gender", pattern.Binary("gender", "male", "female")},
	}
	for _, sc := range schemas {
		s := sc.schema
		r, _ := NewRenderer(s)
		for _, noise := range []float64{0, 15} {
			b.Run(fmt.Sprintf("schema=%s/noise=%g", sc.name, noise), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r.Perceive(i%s.NumSubgroups(), noise, rng)
				}
			})
		}
	}
}
