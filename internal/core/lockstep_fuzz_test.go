package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// truthRounds is a native BatchOracle answering set queries from a
// membership table, with an optional budget cut: once cut HITs are
// posted (cut > 0) it admits only the affordable prefix of a round and
// fails the rest with ErrBudgetExhausted, the partial-prefix form a
// BudgetedOracle uses. It logs each committed round and every
// committed request in order.
type truthRounds struct {
	member map[dataset.ObjectID]bool
	cut    int

	posted int
	rounds [][]string // committed requests per round
	seq    []string   // every committed request, in order
}

func (o *truthRounds) answer(ids []dataset.ObjectID) bool {
	for _, id := range ids {
		if o.member[id] {
			return true
		}
	}
	return false
}

func (o *truthRounds) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	answers, err := o.SetQueryBatch([]SetRequest{{IDs: ids, Group: g}})
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

func (o *truthRounds) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	panic("truthRounds: reverse set query")
}

func (o *truthRounds) PointQuery(id dataset.ObjectID) ([]int, error) {
	panic("truthRounds: point query")
}

func (o *truthRounds) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	k := len(reqs)
	if o.cut > 0 {
		k = min(k, o.cut-o.posted)
	}
	answers := make([]bool, k)
	var round []string
	for i := range answers {
		answers[i] = o.answer(reqs[i].IDs)
		round = append(round, fmt.Sprint(reqs[i].IDs))
	}
	o.posted += k
	o.seq = append(o.seq, round...)
	if k > 0 {
		o.rounds = append(o.rounds, round)
	}
	if k < len(reqs) {
		return answers, fmt.Errorf("cut after %d HITs: %w", o.cut, ErrBudgetExhausted)
	}
	return answers, nil
}

func (o *truthRounds) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	panic("truthRounds: point query")
}

// FuzzLockstepOrder drives fuzz-chosen sets of Algorithm 1 walks (walk
// count, set size n, per-walk tau and membership, an optional budget
// cut) through the round loop, in lockstep and in sequential mode,
// and checks them against a reference that runs every walk alone and
// interleaves the per-walk query sequences: round r of lockstep mode
// holds the r-th query of every walk that still has one, in walk
// order, and sequential mode concatenates the walks. A budget cut
// commits exactly the first cut requests of that sequence, and each
// walk's result equals its lone run with the queries it got. A walk
// the engine asks for several queries a round, or for its whole queue,
// reaches the same result.
func FuzzLockstepOrder(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3), uint8(4), uint8(0))
	f.Add([]byte{0, 0, 0}, uint8(7), uint8(1), uint8(9))
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(5), uint8(16), uint8(40))
	f.Add([]byte{}, uint8(2), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, tasksRaw, nRaw, cutRaw uint8) {
		byteAt := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		nWalks := int(tasksRaw%6) + 2 // 2..7 walks
		n := int(nRaw%8) + 1
		cut := int(cutRaw % 64) // 0: no budget cut
		parallelism := int(nRaw/8)%16 + 1

		member := map[dataset.ObjectID]bool{}
		ids := make([][]dataset.ObjectID, nWalks)
		taus := make([]int, nWalks)
		for i := range ids {
			size := int(byteAt(3*i)) % 40
			taus[i] = int(byteAt(3*i+1)) % 7
			for k := 0; k < size; k++ {
				id := dataset.ObjectID(1000*i + k)
				ids[i] = append(ids[i], id)
				member[id] = byteAt(3*i+2+k)>>(k%8)&1 == 1
			}
		}
		g := pattern.Group{Name: "g"}

		// Each walk alone, without a budget: its query sequence. Walks
		// query disjoint objects, so a request names its walk.
		alone := make([][]string, nWalks)
		owner := map[string]int{}
		for i := range ids {
			o := &truthRounds{member: member}
			if _, err := GroupCoverage(o, ids[i], n, taus[i], g); err != nil {
				t.Fatal(err)
			}
			alone[i] = o.seq
			for _, q := range o.seq {
				owner[q] = i
			}
		}
		// lone runs walk i alone with only its first k queries
		// answered, the last of its queries a cut lets through.
		lone := func(i, k int) GroupResult {
			o := &truthRounds{member: member, cut: k}
			if k == len(alone[i]) {
				o.cut = 0
			} else if k == 0 {
				// A zero cut means no cut; refuse everything instead.
				return GroupResult{Group: g, Exhausted: true}
			}
			res, err := GroupCoverage(o, ids[i], n, taus[i], g)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		for _, lockstep := range []bool{true, false} {
			// The reference: per-walk sequences interleaved round by
			// round (lockstep) or concatenated (sequential), cut.
			var rounds [][]string
			if lockstep {
				for r := 0; ; r++ {
					var round []string
					for i := range alone {
						if r < len(alone[i]) {
							round = append(round, alone[i][r])
						}
					}
					if len(round) == 0 {
						break
					}
					rounds = append(rounds, round)
				}
			} else {
				for _, seq := range alone {
					for _, q := range seq {
						rounds = append(rounds, []string{q})
					}
				}
			}
			var wantRounds [][]string
			var wantSeq []string
			got := make([]int, nWalks) // queries each walk committed
			for _, round := range rounds {
				if cut > 0 && len(wantSeq)+len(round) > cut {
					round = round[:cut-len(wantSeq)]
				}
				if len(round) == 0 {
					break
				}
				wantRounds = append(wantRounds, round)
				wantSeq = append(wantSeq, round...)
				for _, q := range round {
					got[owner[q]]++
				}
			}

			o := &truthRounds{member: member, cut: cut}
			walks := make([]*groupWalk, nWalks)
			for i := range walks {
				walks[i] = newGroupWalk(ids[i], n, taus[i], g, GroupCoverageOptions{})
			}
			width := 1 // any width above 1 means lockstep
			if lockstep {
				width = parallelism
			}
			if err := newEngine(context.Background(), o, lockstep, width).run(walks...); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(o.rounds, wantRounds) {
				t.Fatalf("lockstep=%v: committed rounds %v, want %v", lockstep, o.rounds, wantRounds)
			}
			if !reflect.DeepEqual(o.seq, wantSeq) {
				t.Fatalf("lockstep=%v: request sequence %v, want %v", lockstep, o.seq, wantSeq)
			}
			for i, w := range walks {
				if want := lone(i, got[i]); !reflect.DeepEqual(w.res, want) {
					t.Fatalf("lockstep=%v walk %d: %+v, want %+v (lone run with %d of %d queries)",
						lockstep, i, w.res, want, got[i], len(alone[i]))
				}
			}
		}

		// Windows wider than one query, up to the whole queue, through
		// the engine: with truthful answers the committed sequence is
		// Algorithm 1's, so the result equals the one-query walk's,
		// Tasks included; only the answers dropped after the stop or
		// under an inferred sibling were posted on top. The unbounded
		// window takes at most one round per tree level.
		for i := range ids {
			want := lone(i, len(alone[i]))
			for _, window := range []int{int(byteAt(5*i+4))%6 + 2, math.MaxInt} {
				w := newGroupWalk(ids[i], n, taus[i], g, GroupCoverageOptions{})
				o := &truthRounds{member: member}
				e := newEngine(context.Background(), o, true, parallelism)
				e.window = window
				if err := e.run(w); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(w.res, want) {
					t.Fatalf("walk %d with window %d: %+v, want %+v", i, window, w.res, want)
				}
				if bound := 1 + bits.Len(uint(n-1)); window == math.MaxInt && len(o.rounds) > bound {
					t.Fatalf("walk %d with the whole queue: %d rounds, want <= %d", i, len(o.rounds), bound)
				}
			}
		}
	})
}
