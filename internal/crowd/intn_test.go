package crowd

import (
	"math/rand"
	"testing"
)

// FuzzIntnMatchesRand pins intn to math/rand: for any n in [1, 2^31)
// it returns rand.Intn(n)'s values and leaves the generator in the
// same state, so worker draws keep every transcript. An input outside
// that range is folded into it.
func FuzzIntnMatchesRand(f *testing.F) {
	for _, n := range []uint32{1, 2, 3, 7, 30, 64, 1 << 30, 1<<30 + 1, 1<<31 - 1} {
		f.Add(n, int64(n))
	}
	f.Add(uint32(1<<30+1), int64(-7)) // about half of all Int31 draws are rejected
	f.Fuzz(func(t *testing.T, n uint32, seed int64) {
		if n == 0 || n >= 1<<31 {
			n = n&(1<<31-1) | 1
		}
		d := newDivisor(int(n))
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := range 64 {
			if g, w := intn(got, d), want.Intn(int(n)); g != w {
				t.Fatalf("draw %d of n=%d: intn = %d, rand.Intn = %d", i, n, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("n=%d: generators diverged after 64 draws: next Int63 %d vs %d", n, g, w)
		}
	})
}

// draw picks the workers rand.Perm(n)[:k] names on an identically
// seeded generator, or k draws of rand.Intn(n) when the pool is
// smaller than k, at every pool size and after an exclusion shrinks
// the pool.
func TestDrawMatchesRandPerm(t *testing.T) {
	d := testDataset(t, 10, 2, 1)
	for n := 1; n <= 64; n++ {
		for k := 1; k <= 5; k++ {
			cfg := perfectConfig(int64(n))
			cfg.Profile.Size = n
			cfg.Assignments = k
			p, err := NewPlatform(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(100*n + k)
			p.rng = rand.New(rand.NewSource(seed))
			ref := rand.New(rand.NewSource(seed))
			for round := range 3 {
				if round == 2 && n > 1 {
					p.SetExcludedWorkers([]int{0})
				}
				eligible := p.eligible
				for hit := range 4 {
					var want []int
					if k <= len(eligible) {
						want = ref.Perm(len(eligible))[:k]
					} else {
						for range k {
							want = append(want, ref.Intn(len(eligible)))
						}
					}
					for i, w := range p.draw() {
						if w != eligible[want[i]] {
							t.Fatalf("pool %d, k %d, round %d, HIT %d: draw picked worker %d at %d, want %d",
								n, k, round, hit, w.ID, i, eligible[want[i]].ID)
						}
					}
				}
			}
			if g, w := p.rng.Int63(), ref.Int63(); g != w {
				t.Fatalf("pool %d, k %d: platform RNG diverged from rand.Perm's", n, k)
			}
		}
	}
}
