package muppet

import (
	"context"
	"runtime"
	"sync"
)

// FanOut serves n independent workflow queries across a bounded pool of
// goroutines, the concurrent-query driver behind muppetbench's workloads.
// The encode.System is safe to share across the pool (it is immutable
// after construction); each task must own its mutable state — its parties
// and, if it wants session reuse, its own SolveCache — because those are
// single-goroutine by design.
//
// workers ≤ 0 means GOMAXPROCS. The first error cancels the context passed
// to the remaining tasks and is returned once every in-flight task has
// finished; tasks that never started still count as finished.
func FanOut(ctx context.Context, workers, n int, task func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int)
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
			cancel()
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := task(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			i = n
		}
	}
	close(next)
	wg.Wait()
	return first
}
