package core

import (
	"context"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// partitionWalk runs the production Partition walk over o with no
// budget governor: sequential mode when lockstep is false and
// parallelism <= 1, lockstep rounds otherwise.
func partitionWalk(o Oracle, lockstep bool, parallelism int, predicted []dataset.ObjectID, n, stopAt int, g pattern.Group) (confirmed int, drained bool, tasks int, err error) {
	e := newClassifierEngine(o, nil, context.Background(), lockstep, parallelism, g)
	confirmed, drained, tasks, _, err = e.partitionCleanRounds(predicted, n, stopAt)
	return confirmed, drained, tasks, err
}

// The reference the Partition tests compare the production walk
// against: the paper's sequential Partition loop, one reverse set
// query at a time.

// partitionClean is the Partition function of Algorithm 5: it verifies
// the predicted-positive set with divide-and-conquer reverse set
// queries ("is anyone here NOT in g?"). A "no" confirms the whole
// subset as genuine members; a "yes" splits it, isolating false
// positives in singletons. A "no" on a left child implies — task-free —
// a "yes" on its right sibling. It stops early once stopAt members are
// confirmed, and reports whether it drained the whole set (making the
// confirmed count exact).
func partitionClean(o Oracle, predicted []dataset.ObjectID, n, stopAt int, g pattern.Group) (confirmed int, drained bool, tasks int, err error) {
	if len(predicted) == 0 {
		return 0, true, 0, nil
	}
	q := newQueue()
	for i := 0; i < len(predicted); i += n {
		end := i + n
		if end > len(predicted) {
			end = len(predicted)
		}
		q.push(&node{b: i, e: end})
	}
	for !q.empty() {
		t := q.pop()
		hasFP, err := o.ReverseSetQuery(predicted[t.b:t.e], g)
		if err != nil {
			return confirmed, false, tasks, err
		}
		tasks++

	process:
		if !hasFP {
			// The whole range is verified members of g.
			confirmed += t.size()
			if confirmed >= stopAt {
				return confirmed, false, tasks, nil
			}
			// Sibling inference, mirrored: our parent contains a false
			// positive and we contain none, so the right sibling must.
			if t.parent != nil && t == t.parent.left {
				sib := t.parent.right
				if sib != nil && sib.inQueue {
					q.remove(sib)
					t = sib
					hasFP = true
					goto process
				}
			}
			continue
		}
		if t.size() == 1 {
			continue // isolated false positive: discard
		}
		mid := (t.b + t.e) / 2
		t.left = &node{b: t.b, e: mid, parent: t}
		t.right = &node{b: mid, e: t.e, parent: t}
		q.push(t.left)
		q.push(t.right)
	}
	return confirmed, true, tasks, nil
}
