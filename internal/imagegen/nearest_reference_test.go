package imagegen

import (
	"math"
	"math/rand"
	"testing"

	"imagecvg/internal/pattern"
)

// referenceNearest is the float64 nearest-template decode perception
// used before it moved to exact integer sums over the varying pixels:
// the same strict-< rule over whole glyphs, so the first index wins a
// tie. The float sums are exact integers below 2^24, so both must pick
// the same template for every glyph.
func referenceNearest(r *Renderer, g *Glyph) int {
	best, bestDist := 0, math.MaxFloat64
	for idx := range r.templates {
		if d := referenceDistance(g, &r.templates[idx]); d < bestDist {
			best, bestDist = idx, d
		}
	}
	return best
}

// referenceDistance is the squared L2 distance between two whole
// glyphs, summed in float64.
func referenceDistance(a, b *Glyph) float64 {
	sum := 0.0
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}

// nearestGlyph decodes a whole glyph the way Perceive decodes a noisy
// look: restricted to the varying pixels.
func nearestGlyph(r *Renderer, g *Glyph) int {
	seen := make([]uint8, len(r.varying))
	r.project(g, seen)
	return r.nearest(seen)
}

// referencePerceive is perception v2 on whole glyphs: perturb a copy
// of template k, one NormFloat64 per varying pixel in ascending pixel
// order, and decode it with referenceNearest.
func referencePerceive(r *Renderer, k int, noise float64, rng *rand.Rand) int {
	g := r.templates[k]
	if noise > 0 && rng != nil {
		for _, p := range r.varying {
			g[p] = clamp8(float64(g[p]) + rng.NormFloat64()*noise)
		}
	}
	return referenceNearest(r, &g)
}

// referencePerceiveV1 is perception v1, the transcript before
// PerceptionVersion 2: perturb a copy of template k, one NormFloat64
// per pixel in row-major order, and decode it with referenceNearest.
func referencePerceiveV1(r *Renderer, k int, noise float64, rng *rand.Rand) int {
	g := r.templates[k]
	if noise > 0 && rng != nil {
		for i := range g {
			g[i] = clamp8(float64(g[i]) + rng.NormFloat64()*noise)
		}
	}
	return referenceNearest(r, &g)
}

// fuzzRenderer builds a renderer over 1 to 4 attributes whose
// cardinalities (2 up to each channel's limit) come from cards.
func fuzzRenderer(t *testing.T, cards []byte) *Renderer {
	t.Helper()
	n := min(max(len(cards), 1), len(channelLimits))
	attrs := make([]pattern.Attribute, n)
	for i := range attrs {
		c := 2
		if i < len(cards) {
			c += int(cards[i]) % (channelLimits[i] - 1)
		}
		values := make([]string, c)
		for v := range values {
			values[v] = string(rune('a' + v))
		}
		attrs[i] = pattern.Attribute{Name: string(rune('p' + i)), Values: values}
	}
	r, err := NewRenderer(pattern.MustSchema(attrs...))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// midpoint is the glyph halfway between two templates, rounded down,
// moved pixel by pixel by the signed offsets (repeated over the glyph).
func midpoint(a, b *Glyph, offsets []byte) Glyph {
	var g Glyph
	for i := range g {
		v := (int(a[i]) + int(b[i])) / 2
		if len(offsets) > 0 {
			v += int(int8(offsets[i%len(offsets)]))
		}
		g[i] = uint8(min(max(v, 0), 255))
	}
	return g
}

// FuzzNearestMatchesReference checks the integer decode against the
// float64 reference on glyphs between two templates of random schemas,
// and Perceive against the whole-glyph v2 reference at random noise,
// including the number of values each draws: one per varying pixel.
func FuzzNearestMatchesReference(f *testing.F) {
	// Shapes 0 and 1 at shade 120 differ by 0 or 120 per pixel, so
	// their exact midpoint ties and the first template must win.
	f.Add([]byte{0}, uint16(0), uint16(1), []byte{}, uint8(0), int64(1))
	f.Add([]byte{0}, uint16(1), uint16(0), []byte{}, uint8(15), int64(2))
	f.Add([]byte{4, 4, 2, 1}, uint16(7), uint16(300), []byte{1, 255, 0}, uint8(60), int64(3))
	f.Add([]byte{1, 3}, uint16(5), uint16(5), []byte{}, uint8(200), int64(4))
	f.Add([]byte{2, 0, 1}, uint16(2), uint16(9), []byte{128, 127}, uint8(0), int64(5))
	// The gender schema: circle and square differ in 4 pixels only.
	f.Add([]byte{0}, uint16(1), uint16(0), []byte{1, 0, 255}, uint8(15), int64(6))
	f.Add([]byte{0}, uint16(0), uint16(1), []byte{}, uint8(90), int64(7))
	// 6x6x4x3, every channel at its limit: 432 templates.
	f.Add([]byte{4, 4, 2, 1}, uint16(431), uint16(0), []byte{}, uint8(15), int64(8))
	f.Add([]byte{4, 4, 2, 1}, uint16(36), uint16(37), []byte{0, 1}, uint8(0), int64(9))
	f.Fuzz(func(t *testing.T, cards []byte, a, b uint16, offsets []byte, noise uint8, seed int64) {
		r := fuzzRenderer(t, cards)
		m := len(r.templates)
		ka, kb := int(a)%m, int(b)%m
		g := midpoint(&r.templates[ka], &r.templates[kb], offsets)
		if got, want := nearestGlyph(r, &g), referenceNearest(r, &g); got != want {
			t.Fatalf("nearest = %d, reference = %d", got, want)
		}
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if got, want := r.Perceive(ka, float64(noise), rng), referencePerceive(r, ka, float64(noise), ref); got != want {
			t.Fatalf("Perceive(%d, noise %d) = %d, reference = %d", ka, noise, got, want)
		}
		if rng.Int63() != ref.Int63() {
			t.Fatalf("Perceive drew a different number of values than the reference (%d varying pixels)", len(r.varying))
		}
	})
}

// TestNearestTieTakesFirstTemplate pins the tie rule on the exact
// midpoint of two templates, from both sides.
func TestNearestTieTakesFirstTemplate(t *testing.T) {
	r, _ := NewRenderer(pattern.Binary("shape", "circle", "square"))
	g := midpoint(&r.templates[0], &r.templates[1], nil)
	if d0, d1 := referenceDistance(&g, &r.templates[0]), referenceDistance(&g, &r.templates[1]); d0 != d1 {
		t.Fatalf("midpoint is not a tie: %g vs %g", d0, d1)
	}
	if got := nearestGlyph(r, &g); got != 0 {
		t.Errorf("tie decoded to %d, want 0", got)
	}
	if got := referenceNearest(r, &g); got != 0 {
		t.Errorf("reference tie decoded to %d, want 0", got)
	}
}

// TestVaryingPixelsAreExact checks what makes the projected decode
// exact: every pixel outside the varying set is the same in all
// templates, and the decode table agrees with the whole-glyph
// reference on every template.
func TestVaryingPixelsAreExact(t *testing.T) {
	for _, cards := range [][]byte{{0}, {0, 2}, {1, 3}, {2, 0, 1}, {4, 4, 2, 1}} {
		r := fuzzRenderer(t, cards)
		var varies [Size * Size]bool
		for _, p := range r.varying {
			varies[p] = true
		}
		for p := range r.templates[0] {
			if varies[p] {
				continue
			}
			for k := range r.templates {
				if r.templates[k][p] != r.templates[0][p] {
					t.Fatalf("cards %v: pixel %d outside the varying set differs in template %d", cards, p, k)
				}
			}
		}
		for k := range r.templates {
			if got, want := r.decoded[k], referenceNearest(r, &r.templates[k]); got != want {
				t.Fatalf("cards %v: decoded[%d] = %d, reference = %d", cards, k, got, want)
			}
		}
	}
	if r := fuzzRenderer(t, []byte{0}); len(r.varying) != 4 {
		t.Errorf("gender schema varies in %d pixels, want 4", len(r.varying))
	}
}

// TestPerceptionV2KeepsV1Distribution checks that perception v2 moved
// only the RNG stream, not the noise model. For every template of the
// gender and gender x race schemas at noise 15, 60 and 90, it tallies
// what fixed-seed looks decode to under v1 (referencePerceiveV1) and v2
// (Perceive), and requires every outcome's two frequencies to agree
// within |z| <= 4.5 of a two-sample binomial test. With 8000 looks per
// template and side, the gender schema's 11.5% error rate at noise 90
// fails once it moves by 2.3 points.
func TestPerceptionV2KeepsV1Distribution(t *testing.T) {
	const (
		looks = 8000
		maxZ  = 4.5
	)
	schemas := []struct {
		name   string
		schema *pattern.Schema
	}{
		{"gender", pattern.Binary("gender", "male", "female")},
		{"genderRace", genderRace()},
	}
	worst := 0.0
	for si, sc := range schemas {
		r, err := NewRenderer(sc.schema)
		if err != nil {
			t.Fatal(err)
		}
		m := len(r.templates)
		for ni, noise := range []float64{15, 60, 90} {
			seed := int64(1000*si + 10*ni)
			v1, v2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1))
			wrong1, wrong2 := 0, 0
			for k := 0; k < m; k++ {
				c1, c2 := make([]int, m), make([]int, m)
				for i := 0; i < looks; i++ {
					c1[referencePerceiveV1(r, k, noise, v1)]++
					c2[r.Perceive(k, noise, v2)]++
				}
				for j := range c1 {
					z := binomialZ(c1[j], c2[j], looks)
					worst = max(worst, math.Abs(z))
					if math.Abs(z) > maxZ {
						t.Errorf("%s noise %g: template %d decodes to %d %d times under v1, %d under v2 (z = %.2f)",
							sc.name, noise, k, j, c1[j], c2[j], z)
					}
				}
				wrong1 += looks - c1[k]
				wrong2 += looks - c2[k]
			}
			t.Logf("%s noise %g: wrong %.2f%% (v1) vs %.2f%% (v2)", sc.name, noise,
				100*float64(wrong1)/float64(m*looks), 100*float64(wrong2)/float64(m*looks))
			// Two tallies of all-correct looks would agree trivially.
			if noise == 90 && wrong1 < m*looks/100 {
				t.Errorf("%s noise 90: v1 wrong only %d of %d looks; the test has nothing to compare", sc.name, wrong1, m*looks)
			}
		}
	}
	t.Logf("max |z| = %.2f", worst)
}

// binomialZ is the two-sample z statistic for equal proportions: a and
// b successes out of n trials each, under the pooled proportion.
func binomialZ(a, b, n int) float64 {
	p := float64(a+b) / float64(2*n)
	if p == 0 || p == 1 {
		return 0
	}
	return float64(a-b) / math.Sqrt(2*float64(n)*p*(1-p))
}
