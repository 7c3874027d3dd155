package crowd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuickMajorityVoteIsMajority(t *testing.T) {
	// Property: the aggregate equals the majority answer whenever a
	// strict majority agrees; ties break toward yes.
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%9
		answers := make([]bool, k)
		yes := 0
		for i := range answers {
			answers[i] = rng.Intn(2) == 0
			if answers[i] {
				yes++
			}
		}
		got := (MajorityVote{}).AggregateBool(workersN(k), answers)
		switch {
		case 2*yes > k:
			return got
		case 2*yes < k:
			return !got
		default:
			return got // tie goes to yes
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAggregateLabelsPlurality(t *testing.T) {
	// Property: with an absolute majority on each attribute, the
	// aggregated label is that majority value.
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + 2*(int(kRaw)%4) // odd: 3,5,7,9
		truth := []int{rng.Intn(3), rng.Intn(2)}
		answers := make([][]int, k)
		for i := range answers {
			answers[i] = []int{truth[0], truth[1]}
		}
		// A strict minority disagrees arbitrarily.
		for i := 0; i < k/2; i++ {
			answers[i] = []int{rng.Intn(3), rng.Intn(2)}
		}
		got, err := AggregateLabels(answers)
		if err != nil {
			return false
		}
		// The majority (k - k/2 > k/2 answers) kept the truth, so the
		// plurality must return it.
		return got[0] == truth[0] && got[1] == truth[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDawidSkeneBeatsCoinFlipWorkers(t *testing.T) {
	// Property: with three 85 %-accurate workers and two coin
	// flippers, Dawid-Skene recovers well above coin-flip accuracy.
	// Over 20000 instances it recovered a mean of 54.9 of 60 tasks
	// with a standard deviation of 2.63 per instance, and a lower tail
	// down to 25 (EM settles on swapped labels now and then), so no
	// per-instance bar is safe. The bar is on the mean of the 25
	// instances, whose standard deviation is 2.63/5 = 0.53: 51.5 sits
	// over 6 of them below 54.9, and an EM that breaks lands far under
	// it (coin flips recover 30).
	const tasks, workers, instances = 60, 5, 25
	var recovered []int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := make([]int, tasks)
		for i := range truth {
			truth[i] = rng.Intn(2)
		}
		var responses []Response
		for tsk := 0; tsk < tasks; tsk++ {
			for w := 0; w < workers; w++ {
				acc := 0.85
				if w >= 3 {
					acc = 0.5
				}
				v := truth[tsk]
				if rng.Float64() > acc {
					v = 1 - v
				}
				responses = append(responses, Response{Task: tsk, Worker: w, Value: v})
			}
		}
		res, err := DawidSkene(tasks, workers, 2, responses, 40)
		if err != nil {
			return false
		}
		correct := 0
		for i := range truth {
			if res.Truth[i] == truth[i] {
				correct++
			}
		}
		recovered = append(recovered, correct)
		return true
	}
	cfg := &quick.Config{MaxCount: instances, Rand: rand.New(rand.NewSource(20240613))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range recovered {
		sum += c
	}
	if mean := float64(sum) / float64(len(recovered)); mean < 51.5 {
		t.Errorf("recovered a mean of %.2f of %d tasks over %d instances %v, want at least 51.5",
			mean, tasks, len(recovered), recovered)
	}
}
