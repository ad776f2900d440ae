package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The sweeps of §4 are embarrassingly parallel: every (app, policy, cache,
// block) cell is an independent simulation over a shared read-only trace.
// runIndexed is the one concurrency primitive the package uses — a
// stdlib-only worker pool that executes fn(0) … fn(n-1) on up to `workers`
// goroutines, pulling indices from a shared atomic counter.
//
// Determinism: callers write each result into slot i of a preallocated
// slice and assemble the output in index order afterwards, so results are
// identical regardless of how the cells were scheduled.
//
// Cancellation: no new cell starts once ctx is done, and runIndexed
// returns ctx.Err(); cells already running notice the same context through
// the engines' RunSource loops, so a sweep stops mid-cell rather than
// finishing the cells in flight.
//
// Errors: the lowest-indexed error is returned and new work stops being
// issued as soon as any error is observed (tasks already running finish).
// With workers <= 1 the loop degenerates to the plain sequential sweep.
func runIndexed(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64
		stop atomic.Bool

		mu      sync.Mutex
		errIdx  = -1
		firstEr error
	)
	report := func(i int, err error) {
		mu.Lock()
		if errIdx == -1 || i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					report(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if err := ctx.Err(); err != nil {
		// Cancellation wins: in-flight cells abort with the same ctx error,
		// and the caller asked for exactly this outcome.
		return err
	}
	return firstEr
}

// runCells is the one executor behind every §4 sweep: it runs each cell
// through Run on the worker pool, so the drivers only expand their axes
// into cells and fold the results back into their row types. fold(i, res)
// runs on the cell's worker as soon as cell i finishes, so a sweep keeps
// only what its rows need rather than every cell's engine. runCells owns
// the sweep's progress counters (CellsTotal grows by len(cells) up front,
// CellsDone by one per finished cell), returns ctx.Err() ahead of any cell
// error, and wraps a cell's error with label(i), the cell's "app/variant".
func runCells(opts Options, cells []RunConfig, label func(i int) string, fold func(i int, res *RunResult)) error {
	ctx := opts.ctx()
	if opts.Stats != nil {
		opts.Stats.CellsTotal.Add(uint64(len(cells)))
	}
	return runIndexed(ctx, len(cells), opts.workers(), func(i int) error {
		res, err := Run(ctx, cells[i])
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("%s: %w", label(i), err)
		}
		fold(i, res)
		if opts.Stats != nil {
			opts.Stats.CellsDone.Add(1)
		}
		return nil
	})
}

// workers resolves an Options.Parallelism value (0 = GOMAXPROCS) to a
// positive worker count.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
