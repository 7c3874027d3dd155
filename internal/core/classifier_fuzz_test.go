package core

import (
	"math/rand"
	"testing"

	"imagecvg/internal/dataset"
)

// FuzzPartitionClean fuzzes the Partition function of Algorithm 5 —
// predicted-set composition (size, member fraction, interleaving),
// chunk size and the early-stop threshold — and checks the reference
// partitionClean against a naive exhaustive-labeling reference (count
// the true members of the predicted set straight from ground truth):
//
//   - the confirmed count never exceeds the true member count, so the
//     sibling inference can never double-count a range;
//   - a full drain (drained == true) implies the count is exact;
//   - an early stop (drained == false) only happens at or above the
//     stop threshold, and a threshold beyond the true member count can
//     therefore never stop early;
//   - the production walk (partitionCleanRounds), in sequential mode
//     and in lockstep rounds, commits exactly the reference's
//     confirmed count, drain flag and task count.
func FuzzPartitionClean(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(10), uint8(8), uint8(120))
	f.Add(int64(7), uint16(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(42), uint16(255), uint8(63), uint8(50), uint8(255))
	f.Add(int64(-9), uint16(300), uint8(2), uint8(200), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, sizeRaw uint16, chunkRaw, stopRaw, memberRaw uint8) {
		size := int(sizeRaw)%300 + 1
		chunk := int(chunkRaw)%64 + 1
		members := int(memberRaw) % (size + 1)
		stopAt := int(stopRaw) % (size + 2)
		rng := rand.New(rand.NewSource(seed))
		d, err := dataset.BinaryWithMinority(size, members, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Female(d.Schema())

		// Naive exhaustive reference: label everything from ground
		// truth.
		truth := 0
		for _, id := range d.IDs() {
			labels, ok := d.TrueLabels(id)
			if !ok {
				t.Fatalf("unknown object %d", id)
			}
			if g.Matches(labels) {
				truth++
			}
		}
		if truth != members {
			t.Fatalf("reference count %d, composition says %d", truth, members)
		}

		confirmed, drained, tasks, err := partitionClean(NewTruthOracle(d), d.IDs(), chunk, stopAt, g)
		if err != nil {
			t.Fatal(err)
		}
		if confirmed > truth {
			t.Fatalf("confirmed %d exceeds true members %d (double-counted range?) size=%d chunk=%d stopAt=%d",
				confirmed, truth, size, chunk, stopAt)
		}
		if drained && confirmed != truth {
			t.Fatalf("drained but confirmed %d != true members %d (size=%d chunk=%d stopAt=%d)",
				confirmed, truth, size, chunk, stopAt)
		}
		if !drained && confirmed < stopAt {
			t.Fatalf("stopped early at %d below threshold %d", confirmed, stopAt)
		}
		if !drained && stopAt > truth {
			t.Fatalf("stopped early (confirmed %d) though only %d members exist below threshold %d",
				confirmed, truth, stopAt)
		}
		if tasks == 0 && size > 0 {
			t.Fatalf("zero tasks over %d objects", size)
		}

		// The production walk must commit the identical outcome in
		// both modes.
		for _, lockstep := range []bool{false, true} {
			gotC, gotD, gotT, err := partitionWalk(NewTruthOracle(d), lockstep, int(seed&3)+1, d.IDs(), chunk, stopAt, g)
			if err != nil {
				t.Fatal(err)
			}
			if gotC != confirmed || gotD != drained || gotT != tasks {
				t.Fatalf("walk (lockstep=%v)=(%d,%v,%d) diverged from reference (%d,%v,%d) size=%d chunk=%d stopAt=%d",
					lockstep, gotC, gotD, gotT, confirmed, drained, tasks, size, chunk, stopAt)
			}
		}
	})
}
