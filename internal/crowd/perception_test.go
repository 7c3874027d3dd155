package crowd

// The perception pin: every simulated HIT consumes the platform RNG
// (worker draws) and each assigned worker's RNG (perceptual noise and
// slips) in a fixed order. The golden holds one line per (schema,
// noise, slips, adversaries, qualification) cell over a fixed script
// of set, reverse-set and point rounds: the eligible pool, the ledger
// and a digest of the answers, the ledger snapshot and the raw
// ResponseLog, plus the next Int63 of the platform RNG and of one
// worker's RNG — so a change in how many draws perception makes fails
// the pin even when every answer still agrees.
//
// Regenerate with: go test ./internal/crowd -run TestPerceptionPin -update

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
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
	// draws anything.
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
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "perception.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
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
