package core

import (
	"sync"
	"sync/atomic"
)

// normalizeParallelism maps non-positive pool widths to 1, the one
// normalization rule every engine shares: "no parallelism requested"
// always means a single worker, never a hidden default width.
func normalizeParallelism(parallelism int) int {
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// RunBounded runs fn(i) for every index in [0, n) across at most
// parallelism goroutines and returns the lowest-indexed error. Once a
// task fails, tasks with HIGHER indices are no longer dispatched —
// every query costs crowd money, so a doomed audit must not keep
// posting HITs the sequential engine would never pay for — but tasks
// with lower indices still run: they might fail at a lower index, and
// running them is exactly what the sequential engine would have paid
// for anyway. When each task's failure is a function of its own index
// (not of shared call-order state), the surfaced error is therefore
// deterministic under any scheduling: the lowest failing index, the
// same error the sequential loop stops on. AsBatchOracle lifts plain
// oracles into batched rounds on it, and the experiment harness and
// the audit service reuse it to fan trials and jobs out across
// workers.
func RunBounded(parallelism, n int, fn func(i int) error) error {
	return firstError(runBounded(parallelism, n, fn))
}

// runBounded is RunBounded returning every task's error: tasks below
// the lowest failing index all ran and succeeded.
func runBounded(parallelism, n int, fn func(i int) error) []error {
	if n == 0 {
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	errs := make([]error, n)
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
		return errs
	}
	// minFailed is the lowest failing index observed so far; only
	// tasks above it are skipped.
	var minFailed atomic.Int64
	minFailed.Store(int64(n))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if int64(i) > minFailed.Load() {
					continue
				}
				if errs[i] = fn(i); errs[i] != nil {
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}
