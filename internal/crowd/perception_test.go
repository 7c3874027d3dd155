package crowd

// The perception pin: every simulated HIT consumes the platform RNG
// (worker draws) and each assigned worker's RNG (perceptual noise and
// slips) in a fixed order. The golden holds one line per (schema,
// noise, slips, adversaries, qualification) cell over a fixed script
// of set, reverse-set and point rounds: the eligible pool, the ledger
// and a digest of the answers, the ledger snapshot and the raw
// ResponseLog, plus the next Int63 of the platform RNG and of one
// worker's RNG — so a change in how many draws perception makes fails
// the pin even when every answer still agrees. Its first line names the
// imagegen.PerceptionVersion it was written under.
//
// Regenerate with: go test ./internal/crowd -run TestPerceptionPin -update

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/imagegen"
	"imagecvg/internal/pattern"
)

// perceptionSchemas are the pinned schemas: one binary attribute, one
// four-valued attribute, two six-valued attributes, and every visual
// channel at its full cardinality.
func perceptionSchemas() []*pattern.Schema {
	values := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint(i)
		}
		return out
	}
	attrs := func(cards ...int) []pattern.Attribute {
		out := make([]pattern.Attribute, len(cards))
		for i, c := range cards {
			out[i] = pattern.Attribute{Name: fmt.Sprintf("a%d", i), Values: values(c)}
		}
		return out
	}
	return []*pattern.Schema{
		pattern.MustSchema(attrs(2)...),
		pattern.MustSchema(attrs(4)...),
		pattern.MustSchema(attrs(6, 6)...),
		pattern.MustSchema(attrs(6, 6, 4, 3)...),
	}
}

// perceptionDataset gives every subgroup zero to three objects (at
// least one object overall), shuffled.
func perceptionDataset(s *pattern.Schema, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, s.NumSubgroups())
	for i := range counts {
		counts[i] = rng.Intn(4)
	}
	counts[0]++
	return dataset.MustFromCounts(s, counts, rng)
}

// perceptionGroups are the groups the script queries: each value of
// the first attribute, and a two-member disjunction over the last.
func perceptionGroups(s *pattern.Schema) []pattern.Group {
	groups := pattern.GroupsForAttribute(s, 0)
	last := s.NumAttrs() - 1
	p0, p1 := pattern.All(s), pattern.All(s)
	p0[last] = 0
	p1[last] = s.Attr(last).Cardinality() - 1
	return append(groups, pattern.Group{Name: "ends", Members: []pattern.Pattern{p0, p1}})
}

// runPerceptionScript posts the fixed query script and returns the
// observable transcript. The script is drawn from its own RNG, so it
// is the same for every setting of one schema.
func runPerceptionScript(p *Platform, d *dataset.Dataset, seed int64) string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(seed))
	ids := d.IDs()
	groups := perceptionGroups(d.Schema())
	pick := func(n int) []dataset.ObjectID {
		out := make([]dataset.ObjectID, n)
		for i := range out {
			out[i] = ids[rng.Intn(len(ids))]
		}
		return out
	}
	for round := 0; round < 8; round++ {
		reqs := make([]core.SetRequest, 1+rng.Intn(4))
		for i := range reqs {
			reqs[i] = core.SetRequest{
				IDs:     pick(1 + rng.Intn(12)),
				Group:   groups[rng.Intn(len(groups))],
				Reverse: rng.Intn(3) == 0,
			}
		}
		answers, err := p.SetQueryBatch(reqs)
		fmt.Fprintf(&b, "set %v %v\n", answers, err)
		labels, err := p.PointQueryBatch(pick(1 + rng.Intn(3)))
		fmt.Fprintf(&b, "point %v %v\n", labels, err)
	}
	// Failing rounds: an unknown object after a committed request, and
	// an empty set. The error must surface before the failing request
	// draws anything, and a round returns its committed prefix.
	unknown := dataset.ObjectID(d.Size() + 7)
	answers, err := p.SetQueryBatch([]core.SetRequest{
		{IDs: pick(3), Group: groups[0]},
		{IDs: []dataset.ObjectID{ids[0], unknown}, Group: groups[0]},
	})
	fmt.Fprintf(&b, "set %v %v\n", answers, err)
	answers, err = p.SetQueryBatch([]core.SetRequest{{Group: groups[0]}})
	fmt.Fprintf(&b, "set %v %v\n", answers, err)
	labels, err := p.PointQueryBatch([]dataset.ObjectID{ids[1], unknown})
	fmt.Fprintf(&b, "point %v %v\n", labels, err)
	return b.String()
}

// runPerceptionCell builds one cell's platform, runs the script and
// renders the golden line.
func runPerceptionCell(si int, s *pattern.Schema, noise float64, slips, adversaries, qualification bool) string {
	d := perceptionDataset(s, int64(100+si))
	log := &ResponseLog{}
	cfg := DefaultConfig(int64(7000 + si))
	cfg.Profile = DefaultProfile(12)
	cfg.Profile.PerceptNoise = noise
	if !slips {
		cfg.Profile.SlipMin, cfg.Profile.SlipMax = 0, 0
	}
	if adversaries {
		cfg.Adversary = AdversaryConfig{Rate: 0.3, Strategy: LazyYes{}}
	}
	if qualification {
		cfg.Qualification = &QualificationTest{Questions: 6, PassFraction: 0.5}
	}
	cfg.Responses = log
	p, err := NewPlatform(d, cfg)
	if err != nil {
		return fmt.Sprintf("error %v", err)
	}
	transcript := runPerceptionScript(p, d, int64(300+si))
	next := fmt.Sprintf("%d %d", p.rng.Int63(), p.pool[0].rng.Int63())
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%+v\n%v\n%s",
		transcript, p.Ledger().Snapshot(), log.Responses(), next)))
	return fmt.Sprintf("eligible=%d hits=%d responses=%d %x",
		p.EligibleWorkers(), p.Ledger().TotalHITs(), log.Len(), sum[:6])
}

// TestPerceptionPin pins the platform's answers and RNG draw counts
// across schemas and worker settings against a golden file.
func TestPerceptionPin(t *testing.T) {
	var lines []string
	for si, s := range perceptionSchemas() {
		for _, noise := range []float64{0, 15, 60} {
			for _, slips := range []bool{false, true} {
				for _, adversaries := range []bool{false, true} {
					for _, qualification := range []bool{false, true} {
						line := runPerceptionCell(si, s, noise, slips, adversaries, qualification)
						lines = append(lines, fmt.Sprintf("%s noise=%g slips=%t lazy=%t qual=%t %s",
							s, noise, slips, adversaries, qualification, line))
					}
				}
			}
		}
	}
	checkPerceptionGolden(t, filepath.Join("testdata", "perception.golden"), lines)
}

// perceptionHeader is the first line of a golden whose answers depend
// on the perception transcript.
var perceptionHeader = fmt.Sprintf("perception v%d", imagegen.PerceptionVersion)

// checkPerceptionGolden compares lines against the golden at path,
// after its perception header: a golden written under another
// transcript version fails on the version, not on a line it moved.
// With -update it rewrites the golden first.
func checkPerceptionGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	got := perceptionHeader + "\n" + strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	header, _, _ := strings.Cut(string(want), "\n")
	if header != perceptionHeader {
		version := "v1 (no perception header)"
		if v, ok := strings.CutPrefix(header, "perception "); ok {
			version = v
		}
		t.Fatalf("%s: golden is perception %s, code is v%d; regenerate with -update",
			path, version, imagegen.PerceptionVersion)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d diverged from the golden:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
	}
}

// TestWarmRejectsUnreproducedAnswers: a journal does not record the
// perception version it was written under, so a resume is safe only
// because Warm re-derives every journaled answer on the fresh platform.
// A journal whose answers the platform does not reproduce, as one
// written under another transcript may be, fails with
// ErrJournalMismatch instead of resuming on a diverged crowd.
func TestWarmRejectsUnreproducedAnswers(t *testing.T) {
	s := perceptionSchemas()[2]
	d := perceptionDataset(s, 102)
	groups := perceptionGroups(s)
	newPlatform := func() *Platform {
		cfg := DefaultConfig(7002)
		cfg.Profile = DefaultProfile(12)
		cfg.Profile.PerceptNoise = 60
		p, err := NewPlatform(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ids := d.IDs()
	sets := []core.SetRequest{
		{IDs: ids[:6], Group: groups[0]},
		{IDs: ids[6:12], Group: groups[len(groups)-1], Reverse: true},
	}
	points := ids[:3]
	p := newPlatform()
	setAnswers, err := p.SetQueryBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	pointAnswers, err := p.PointQueryBatch(points)
	if err != nil {
		t.Fatal(err)
	}
	journal := func() []core.RoundRecord {
		labels := make([][]int, len(pointAnswers))
		for i, l := range pointAnswers {
			labels[i] = slices.Clone(l)
		}
		return []core.RoundRecord{
			{Round: 0, Sets: sets, SetAnswers: slices.Clone(setAnswers)},
			{Round: 1, Points: points, PointAnswers: labels},
		}
	}
	if err := newPlatform().Warm(journal()); err != nil {
		t.Fatalf("warm from the platform's own answers: %v", err)
	}
	flipSet := journal()
	flipSet[0].SetAnswers[1] = !flipSet[0].SetAnswers[1]
	flipPoint := journal()
	flipPoint[1].PointAnswers[2][0] = (flipPoint[1].PointAnswers[2][0] + 1) % s.Attr(0).Cardinality()
	for i, recs := range [][]core.RoundRecord{flipSet, flipPoint} {
		if err := newPlatform().Warm(recs); !errors.Is(err, core.ErrJournalMismatch) {
			t.Errorf("warm from a journal with one answer of round %d changed: err = %v, want ErrJournalMismatch", i, err)
		}
	}
}
