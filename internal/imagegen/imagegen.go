// Package imagegen renders dataset objects as small grayscale images
// and decodes them back. It is the stand-in for the paper's face
// photographs: each object's hidden demographic labels deterministically
// choose visual features (shape, shade, corner markers, border) of a
// 16x16 glyph, and simulated crowd workers answer queries by perceiving
// the rendered pixels — optionally through noise — rather than by
// reading ground truth directly. This keeps the whole pipeline honest:
// between the dataset and the algorithms there are only images.
package imagegen

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"math/rand"

	"imagecvg/internal/pattern"
)

// Size is the glyph edge length in pixels.
const Size = 16

// Glyph is a Size x Size grayscale image in row-major order.
type Glyph [Size * Size]uint8

// At returns the pixel at (x, y).
func (g *Glyph) At(x, y int) uint8 { return g[y*Size+x] }

// Set writes the pixel at (x, y).
func (g *Glyph) Set(x, y int, v uint8) { g[y*Size+x] = v }

// Image converts the glyph to an image.Gray for use with image/png.
func (g *Glyph) Image() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, Size, Size))
	copy(img.Pix, g[:])
	return img
}

// WritePNG encodes the glyph as a PNG.
func (g *Glyph) WritePNG(w io.Writer) error { return png.Encode(w, g.Image()) }

// WritePGM encodes the glyph as a binary PGM (P5), the simplest
// portable grayscale format.
func (g *Glyph) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", Size, Size); err != nil {
		return err
	}
	_, err := w.Write(g[:])
	return err
}

// visual channel limits: attribute i of the schema drives channel i.
const (
	maxShapes  = 6 // channel 0
	maxShades  = 6 // channel 1
	maxMarkers = 4 // channel 2
	maxBorders = 3 // channel 3
)

var channelLimits = []int{maxShapes, maxShades, maxMarkers, maxBorders}

// Renderer draws the clean glyph of every subgroup of one schema and
// decodes perceived glyphs back to subgroups by nearest-template
// matching. Objects of one subgroup share one template, so perception
// is keyed by the subgroup (template) index, never by the object.
//
// Decoding looks only at the varying pixels, where some two templates
// differ. A pixel shared by every template adds the same amount to the
// squared distance from any glyph to every template, so dropping it
// changes neither the nearest template nor which one wins a tie.
type Renderer struct {
	schema    *pattern.Schema
	templates []Glyph // clean glyph per subgroup index
	labels    [][]int // label vector per subgroup index
	varying   []int   // ascending pixel indices where some two templates differ
	projected []uint8 // template k at the varying pixels: projected[k*len(varying):][:len(varying)]
	decoded   []int   // nearest template to template k, per subgroup index k
}

// NewRenderer validates that the schema fits the available visual
// channels (at most 4 attributes with cardinalities 6, 6, 4, 3),
// precomputes the clean template of every subgroup, restricts the
// templates to their varying pixels, and decodes each template once:
// what a noiseless look at subgroup k decodes to is fixed, and the
// table holds it rather than assuming it is k.
func NewRenderer(s *pattern.Schema) (*Renderer, error) {
	if s.NumAttrs() > len(channelLimits) {
		return nil, fmt.Errorf("imagegen: %d attributes exceed the %d visual channels", s.NumAttrs(), len(channelLimits))
	}
	for i := 0; i < s.NumAttrs(); i++ {
		if c := s.Attr(i).Cardinality(); c > channelLimits[i] {
			return nil, fmt.Errorf("imagegen: attribute %q cardinality %d exceeds channel limit %d",
				s.Attr(i).Name, c, channelLimits[i])
		}
	}
	r := &Renderer{schema: s}
	m := s.NumSubgroups()
	r.templates = make([]Glyph, m)
	r.labels = make([][]int, m)
	r.decoded = make([]int, m)
	for idx := 0; idx < m; idx++ {
		r.labels[idx] = []int(pattern.SubgroupAt(s, idx))
		r.templates[idx] = r.clean(r.labels[idx])
	}
	for i := range r.templates[0] {
		for idx := 1; idx < m; idx++ {
			if r.templates[idx][i] != r.templates[0][i] {
				r.varying = append(r.varying, i)
				break
			}
		}
	}
	w := len(r.varying)
	r.projected = make([]uint8, m*w)
	for idx := range r.templates {
		r.project(&r.templates[idx], r.projected[idx*w:(idx+1)*w])
	}
	for idx := range r.templates {
		r.decoded[idx] = r.nearest(r.projected[idx*w : (idx+1)*w])
	}
	return r, nil
}

// Schema returns the renderer's schema.
func (r *Renderer) Schema() *pattern.Schema { return r.schema }

// Labels returns the label vector of subgroup k. The slice is shared:
// callers read it and must not modify it.
func (r *Renderer) Labels(k int) []int { return r.labels[k] }

// channel returns the label for channel ch, or 0 when the schema has
// fewer attributes than channels.
func channelValue(labels []int, ch int) int {
	if ch < len(labels) {
		return labels[ch]
	}
	return 0
}

// clean draws the noiseless glyph for a label vector.
func (r *Renderer) clean(labels []int) Glyph {
	var g Glyph
	shade := uint8(120 + 27*channelValue(labels, 1)) // 120..255
	drawShape(&g, channelValue(labels, 0), shade)
	drawMarkers(&g, channelValue(labels, 2))
	drawBorder(&g, channelValue(labels, 3))
	return g
}

// PerceptionVersion names the RNG transcript of a noisy Perceive: how
// many NormFloat64 values a look draws, and for which pixels. Goldens
// that pin crowd answers record it in their header, so a change in the
// transcript fails on the version before any line diff. Version 1 drew
// one value per pixel, all 256 in row-major order; version 2 draws one
// per varying pixel. Each look's answer has the same distribution under
// both: the decode reads only the varying pixels, and v1's draws on the
// other pixels are independent of theirs.
const PerceptionVersion = 2

// Perceive simulates looking at the glyph of subgroup k through
// additive Gaussian pixel noise of the given standard deviation (in
// intensity units, 0..255) and returns the subgroup the seen glyph
// decodes to. It is the primitive crowd workers use. With positive
// noise and a non-nil rng it draws exactly one NormFloat64 per varying
// pixel, in ascending pixel order, and decodes the perturbed varying
// pixels of the template. Noise on a pixel shared by every template
// moves the distance to every template alike, so no value is drawn for
// it. Otherwise it draws nothing and returns the template's decoding
// from the table. With the glyph sizes and channel encodings used here,
// decoding is exact up to substantial noise, mirroring the paper's
// observation that these tasks are "easy" for humans.
func (r *Renderer) Perceive(k int, noise float64, rng *rand.Rand) int {
	if noise <= 0 || rng == nil {
		return r.decoded[k]
	}
	var buf [Size * Size]uint8
	seen := buf[:len(r.varying)]
	t := r.projected[k*len(seen):]
	for j := range seen {
		seen[j] = clamp8(float64(t[j]) + rng.NormFloat64()*noise)
	}
	return r.nearest(seen)
}

// project writes the varying pixels of g, in order, into dst.
func (r *Renderer) project(g *Glyph, dst []uint8) {
	for j, p := range r.varying {
		dst[j] = g[p]
	}
}

// nearest returns the subgroup index whose projected template is
// closest to the projected glyph seen in squared L2 distance, exact in
// integers (at most 256 * 255^2, below 2^24); the first index wins a
// tie.
func (r *Renderer) nearest(seen []uint8) int {
	best, bestDist := 0, math.MaxInt
	for idx := range r.templates {
		t := r.projected[idx*len(seen):][:len(seen)]
		sum := 0
		for i, v := range seen {
			d := int(v) - int(t[i])
			sum += d * d
		}
		if sum < bestDist {
			best, bestDist = idx, sum
		}
	}
	return best
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// --- drawing primitives ----------------------------------------------------

// drawShape fills the central 10x10 region with one of six shapes.
func drawShape(g *Glyph, shape int, fg uint8) {
	cx, cy := float64(Size)/2-0.5, float64(Size)/2-0.5
	for y := 3; y < Size-3; y++ {
		for x := 3; x < Size-3; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			var in bool
			switch shape {
			case 0: // filled circle
				in = dx*dx+dy*dy <= 20
			case 1: // filled square
				in = math.Abs(dx) <= 4 && math.Abs(dy) <= 4
			case 2: // triangle pointing up
				in = dy >= -4 && dy <= 4 && math.Abs(dx) <= (dy+4.5)*0.62
			case 3: // diamond
				in = math.Abs(dx)+math.Abs(dy) <= 5
			case 4: // cross
				in = math.Abs(dx) <= 1.6 || math.Abs(dy) <= 1.6
			case 5: // ring
				d2 := dx*dx + dy*dy
				in = d2 <= 22 && d2 >= 7
			}
			if in {
				g.Set(x, y, fg)
			}
		}
	}
}

// drawMarkers puts up to three bright 2x2 dots in the corners.
func drawMarkers(g *Glyph, n int) {
	corners := [][2]int{{0, 0}, {Size - 2, 0}, {0, Size - 2}}
	for i := 0; i < n && i < len(corners); i++ {
		cx, cy := corners[i][0], corners[i][1]
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				g.Set(cx+dx, cy+dy, 255)
			}
		}
	}
}

// drawBorder draws no border (0), a top+bottom border (1), or a full
// frame (2) at mid intensity.
func drawBorder(g *Glyph, style int) {
	const v = 90
	if style >= 1 {
		for x := 0; x < Size; x++ {
			if g.At(x, 0) == 0 {
				g.Set(x, 0, v)
			}
			if g.At(x, Size-1) == 0 {
				g.Set(x, Size-1, v)
			}
		}
	}
	if style >= 2 {
		for y := 0; y < Size; y++ {
			if g.At(0, y) == 0 {
				g.Set(0, y, v)
			}
			if g.At(Size-1, y) == 0 {
				g.Set(Size-1, y, v)
			}
		}
	}
}
