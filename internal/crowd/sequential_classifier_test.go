package crowd

// The width-1 pin for Classifier-Coverage over the simulated crowd:
// at Parallelism 1 with Lockstep unset, every phase of Algorithm 4/5
// posts its queries one at a time, in the paper's order, through the
// audit's oracle. The platform consumes its worker RNG per HIT, so
// any change to which queries reach it, or in which order, shows up
// in the ledger, the response log and usually the verdict. The golden
// holds one line per (instance, stack, predicted-set shape) cell:
// the result's String() (less the constant group prefix) plus a
// digest of the ledger snapshot, the governor spend and the raw
// response log. Noisy perception feeds every answer, so the golden
// starts with the perception version header.
//
// Regenerate with: go test ./internal/crowd -run TestSequentialClassifierPin -update

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

var update = flag.Bool("update", false, "rewrite the crowd golden files")

// pinStacks are the oracle stacks each pin instance runs through.
var pinStacks = []string{"plain", "budget", "cache", "flaky"}

// pinShapes are the predicted-set shapes: as generated, no false
// positives, and mostly false positives.
var pinShapes = []string{"asis", "nofp", "fpheavy"}

// runSequentialClassifierCell runs one width-1 crowd classifier audit
// and renders its golden line.
func runSequentialClassifierCell(t *testing.T, inst conformanceInstance, maxHITs int, stack, shape string) string {
	t.Helper()
	d := dataset.MustFromCounts(inst.schema, inst.counts, rand.New(rand.NewSource(inst.platformSeed+1)))
	log := &ResponseLog{}
	p := platformFor(t, inst, d, log)

	g := pattern.GroupsForAttribute(inst.schema, 0)[1]
	tp, fp := inst.classifierTP, inst.classifierFP
	switch shape {
	case "nofp":
		fp = 0
	case "fpheavy":
		tp, fp = min(tp, 2), 20+fp
	}
	predicted := d.PredictedSet(g, tp, fp)

	opts := core.ClassifierOptions{Rng: rand.New(rand.NewSource(inst.auditSeed)), Parallelism: 1}
	var o core.Oracle = p
	var gov *core.BudgetedOracle
	switch stack {
	case "budget", "cache":
		cfg := core.StackConfig{Cache: stack == "cache"}
		if stack == "budget" {
			cfg.Budget = &core.Budget{MaxHITs: maxHITs}
		}
		s, err := core.NewStack(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o, gov = s.Top, s.Governor
	case "flaky":
		o = &core.FlakyOracle{Inner: p, FailEvery: 5}
		opts.Retry = core.RetryPolicy{MaxAttempts: 4}
	}

	res, err := core.ClassifierCoverage(o, d.IDs(), predicted, inst.setSize, inst.tau, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	spent := "-"
	if gov != nil {
		spent = fmt.Sprintf("%+v", gov.Spent())
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%s\n%v", p.Ledger().Snapshot(), spent, log.Responses())))
	return fmt.Sprintf("%s %x", strings.TrimPrefix(res.String(), g.String()+": "), sum[:5])
}

// TestSequentialClassifierPin pins the width-1 crowd classifier
// byte for byte against a golden file.
func TestSequentialClassifierPin(t *testing.T) {
	rng := rand.New(rand.NewSource(20317))
	var lines []string
	for i := 0; i < 14; i++ {
		inst := generateInstance(rng, "classifier")
		maxHITs := 4 + rng.Intn(40)
		for _, stack := range pinStacks {
			for _, shape := range pinShapes {
				line := runSequentialClassifierCell(t, inst, maxHITs, stack, shape)
				lines = append(lines, fmt.Sprintf("%02d %s %s %s", i, stack, shape, line))
			}
		}
	}
	checkPerceptionGolden(t, filepath.Join("testdata", "sequential_classifier.golden"), lines)
}
