package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// fuzzFeed is an AnswerFeed over raw fuzz-derived entries, including
// malformed ones (negative workers, out-of-range values, non-monotone
// HIT indices) the real ResponseLog would never emit.
type fuzzFeed struct{ entries []WorkerAnswer }

func (f *fuzzFeed) AnswersSince(n int) []WorkerAnswer {
	if n < 0 {
		n = 0
	}
	if n >= len(f.entries) {
		return nil
	}
	return append([]WorkerAnswer(nil), f.entries[n:]...)
}

// probeRecorder notes, for each forwarded set round, how many requests
// it carried — the probe schedule made observable.
type probeRecorder struct {
	inner  BatchOracle
	rounds []int
}

func (r *probeRecorder) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return r.inner.SetQuery(ids, g)
}

func (r *probeRecorder) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return r.inner.ReverseSetQuery(ids, g)
}

func (r *probeRecorder) PointQuery(id dataset.ObjectID) ([]int, error) {
	return r.inner.PointQuery(id)
}

func (r *probeRecorder) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	r.rounds = append(r.rounds, len(reqs))
	return r.inner.SetQueryBatch(reqs)
}

func (r *probeRecorder) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	return r.inner.PointQueryBatch(ids)
}

// FuzzTrustVerdict fuzzes the trust middleware end to end: arbitrary
// answer/probe streams must never panic or produce non-finite scores,
// trust verdicts must be monotone in probe failures, and the probe
// schedule must not depend on the batch width the engine negotiated.
func FuzzTrustVerdict(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 3, 5)
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f}, 1, 12)
	f.Add([]byte{}, 9, 1)
	f.Fuzz(func(t *testing.T, data []byte, probeEvery, rounds int) {
		d, err := dataset.BinaryWithMinority(30, 10, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Female(d.Schema())
		probes := GoldProbes(d, []pattern.Group{g}, 3, 5)

		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			v := int(int8(data[pos]))
			pos++
			return v
		}

		// Part 1: Score/Distrusts are total over arbitrary counts.
		pol := DefaultTrustPolicy()
		for i := 0; i < 4; i++ {
			probesN, fails, answers, contra := next(), next(), next(), next()
			s := pol.Score(probesN, fails, answers, contra)
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("Score(%d,%d,%d,%d) = %v", probesN, fails, answers, contra, s)
			}
			pol.Distrusts(s, next())
			// Monotone: one more probe failure never raises the score.
			if worse := pol.Score(probesN, fails+1, answers, contra); worse > s {
				t.Fatalf("score rose with an extra probe failure: %v -> %v", s, worse)
			}
		}

		// Part 2: the full middleware over a fuzz-shaped answer feed
		// (malformed entries included) never panics, and its report is
		// finite.
		if probeEvery < 0 {
			probeEvery = -probeEvery
		}
		probeEvery = probeEvery%6 + 1
		if rounds < 0 {
			rounds = -rounds
		}
		rounds = rounds%12 + 1
		feed := &fuzzFeed{}
		run := func(width int) []int {
			rec := &probeRecorder{inner: NewTruthOracle(d)}
			tr, err := NewTrustOracle(rec, TrustConfig{
				Policy: TrustPolicy{ProbeEvery: probeEvery},
				Probes: probes,
				Feed:   feed,
				Screen: &recordingScreener{},
			})
			if err != nil {
				t.Fatal(err)
			}
			bo := AsBatchOracle(tr, width)
			ids := d.IDs()
			for r := 0; r < rounds; r++ {
				n := abs(next())%3 + 1
				reqs := make([]SetRequest, n)
				for i := range reqs {
					lo := abs(next()) % (len(ids) - 3)
					reqs[i] = SetRequest{IDs: ids[lo : lo+3], Group: g, Reverse: next()&1 == 1}
				}
				// Grow the feed with fuzz-shaped raw answers for this
				// round (sometimes short, sometimes garbage).
				for k := abs(next()) % 8; k > 0; k-- {
					feed.entries = append(feed.entries, WorkerAnswer{
						HIT:    next(),
						Worker: next(),
						Value:  next(),
					})
				}
				if _, err := bo.SetQueryBatch(reqs); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
			}
			rep := tr.Report()
			if rep.ProbesIssued > rounds {
				t.Fatalf("issued %d probes over %d rounds", rep.ProbesIssued, rounds)
			}
			for _, w := range rep.Workers {
				if math.IsNaN(w.Score) || math.IsInf(w.Score, 0) {
					t.Fatalf("non-finite score for worker %d: %+v", w.Worker, w)
				}
			}
			return rec.rounds
		}

		// Part 3: probe schedule is independent of batch width. Replay
		// the identical round sequence at widths 1 and 16 by rewinding
		// the fuzz cursor and the feed.
		mark := pos
		narrow := run(1)
		pos = mark
		feed.entries = nil
		wide := run(16)
		if !reflect.DeepEqual(narrow, wide) {
			t.Fatalf("probe schedule depends on batch width: %v vs %v", narrow, wide)
		}
	})
}
