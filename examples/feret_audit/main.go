// FERET audit: the paper's live MTurk experiment (Table 1) end to
// end — the FERET slice with 215 females and 1307 males audited
// through the full crowd simulator with imperfect workers, 3-way
// majority vote, and dollar-cost accounting.
//
//	go run ./examples/feret_audit
package main

import (
	"fmt"
	"log"
	"math/rand"

	"imagecvg"
)

func main() {
	rng := rand.New(rand.NewSource(2024))
	ds := imagecvg.PresetFERETTable1.Generate(rng)
	fmt.Println("dataset:", imagecvg.PresetFERETTable1)

	crowd, err := imagecvg.NewSimulatedCrowd(ds, 17, imagecvg.CrowdOptions{
		PoolSize: 40,
		Rating:   true, // PercentAssignmentsApproved >= 95, NumberHITsApproved >= 100
	})
	if err != nil {
		log.Fatal(err)
	}
	// The simulated crowd is order-dependent (worker draws advance the
	// platform RNG per HIT). WithParallelism(4) runs multi-group audits
	// in deterministic lockstep rounds, so verdicts, task counts and
	// dollar costs come out bit-identical whether the engine runs
	// 2-wide or 16-wide. (The single-group audits below run the
	// sequential Algorithm 1 either way; lockstep matters for
	// AuditGroups/AuditAttribute/AuditIntersectional.)
	auditor := imagecvg.NewAuditor(crowd, 50, 50).WithParallelism(4)
	female := imagecvg.FemaleGroup(ds.Schema())

	res, err := auditor.AuditGroup(ds.IDs(), female)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nGroup-Coverage verdict:", res)
	fmt.Println("crowd cost:            ", crowd.Cost())
	fmt.Printf("paper's upper bound:    %.0f HITs\n",
		imagecvg.UpperBoundHITs(ds.Size(), 50, 50))

	// The same audit with the naive baseline, on a fresh ledger.
	crowd.ResetCost()
	base, err := auditor.AuditBaseline(ds.IDs(), female)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBase-Coverage verdict: ", base)
	fmt.Println("crowd cost:            ", crowd.Cost())

	// Both gender groups at once through the concurrent engine — this
	// is the audit the lockstep engine makes reproducible: this
	// block prints the same verdicts and cost for every WithParallelism
	// value above 1.
	crowd.ResetCost()
	attr, err := auditor.AuditAttribute(ds.IDs(), ds.Schema(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMultiple-Coverage over gender (lockstep):")
	for _, r := range attr.Results {
		fmt.Printf("  %-8s covered=%-5v count in [%d, %d]\n", r.Group, r.Covered, r.CountLo, r.CountHi)
	}
	fmt.Printf("tasks: %d (samples %d + audits %d)\n", attr.Tasks, attr.SampleTasks, attr.AuditTasks)
	fmt.Println("crowd cost:", crowd.Cost())
}
