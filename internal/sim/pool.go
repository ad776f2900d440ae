package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"migratory/internal/core"
	"migratory/internal/memory"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
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
// runs on a worker as soon as cell i's result is known, so a sweep keeps
// only what its rows need rather than every cell's engine. runCells owns
// the sweep's progress counters (CellsTotal grows by len(cells) up front,
// CellsDone by one per finished cell), returns ctx.Err() ahead of any cell
// error, and wraps a cell's error with label(i), the cell's "app/variant".
//
// apps[i], when apps is non-nil and apps[i] is, declares cell i App-backed:
// it replays that App's trace under that App's placement. Such a
// directory or bus cell is shared (see planCells): cells that must compute
// the same result run once, and a result an earlier sweep finished is
// reused; a directory result carries its classifier verdicts, so a reused
// one answers EverMigratory too. Cells with probes never share, and the
// timing model's sweep (ExecutionTimeApps) passes no apps.
//
// The jobs spend the sweep's goroutine budget through Options.each, each
// job granted a share of the shards that poolShards caps at its own
// Shards. A sweep with at least Parallelism × Shards jobs therefore runs
// that many unsharded cells at once, while a short sweep or a lone cell
// still shards. Timing cells always run unsharded (their bus serializes
// every transaction), so their pool gets the whole budget.
func runCells(opts Options, cells []RunConfig, apps []*App, label func(i int) string, fold func(i int, res *RunResult)) error {
	ctx := opts.ctx()
	st := opts.Stats
	if st != nil {
		st.CellsTotal.Add(uint64(len(cells)))
	}
	reuse := func(i int, res *RunResult) {
		fold(i, res)
		creditReused(st, cells[i].Stats, res)
	}
	jobs, err := planCells(opts, cells, apps, reuse)
	if err != nil {
		return err
	}
	return opts.each(len(jobs), func(j, shards int) error {
		jb := jobs[j]
		jb.cfg.Shards = jb.cfg.poolShards(shards)
		res, err := Run(ctx, jb.cfg)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("%s: %w", label(jb.cell), err)
		}
		fold(jb.cell, res)
		if st != nil {
			st.CellsDone.Add(1)
		}
		if jb.app != nil {
			jb.app.remember(jb.key, res)
			for _, d := range jb.dups {
				reuse(d, res)
			}
		}
		return nil
	})
}

// cellJob is one simulation runCells schedules: cell's config (with a
// never-evicting cache replaced by the infinite one) and, for a shared
// cell, its App, its key there, and the duplicate cells its result also
// answers.
type cellJob struct {
	cell int
	cfg  RunConfig
	app  *App
	key  cellKey
	dups []int
}

// cellKey names a shared cell's result within its App: the engine and
// every RunConfig field that can change what the engine computes over the
// App's trace and placement. Shards, Decoders, Cache and Stats cannot, so
// they are left out, as Digest leaves out Decoders. A cache that never
// evicts is keyed as the infinite cache it is equivalent to: CacheBytes 0
// and no associativity.
type cellKey struct {
	engine, protocol string
	policy           core.Policy
	nodes            int
	cacheBytes       int
	blockSize        int
	assoc            int
	hysteresis       int
	dirPointers      int
	freeDrops        bool
}

// planCells turns a sweep's cells into the jobs that must run. Every
// shared cell is keyed first (under noShortcuts none is). A finite cache
// is keyed as infinite when its App's footprint proves it never evicts;
// the footprints of the Apps that need one are resolved up front, one App
// per call of Options.each. Then a cell whose key the App has remembered
// from an earlier sweep is answered at once through reuse(i, res), and
// cells sharing a key within this sweep become one job whose result folds
// into all of them, so no worker waits on another.
func planCells(opts Options, cells []RunConfig, apps []*App, reuse func(i int, res *RunResult)) ([]cellJob, error) {
	ctx := opts.ctx()
	shared := make([]bool, len(cells))
	var needFootprint []*App
	seen := make(map[*App]bool)
	for i, cfg := range cells {
		if noShortcuts || apps == nil || apps[i] == nil || cfg.Probes != nil || cfg.Engine == EngineTiming {
			continue
		}
		if cfg.withDefaults().Validate() != nil {
			continue // Run reports the error
		}
		shared[i] = true
		if cfg.CacheBytes != 0 && !seen[apps[i]] {
			seen[apps[i]] = true
			needFootprint = append(needFootprint, apps[i])
		}
	}
	err := opts.each(len(needFootprint), func(j, _ int) error {
		if _, err := needFootprint[j].footprintOf(ctx, opts.Cache); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("%s: %w", needFootprint[j].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	type boundKey struct {
		app                      *App
		cacheBytes, block, assoc int
	}
	bounds := make(map[boundKey]bool)
	type jobKey struct {
		app *App
		key cellKey
	}
	first := make(map[jobKey]int)
	var jobs []cellJob
	for i, cfg := range cells {
		if !shared[i] {
			jobs = append(jobs, cellJob{cell: i, cfg: cfg})
			continue
		}
		app := apps[i]
		c := cfg.withDefaults()
		if c.CacheBytes != 0 {
			bk := boundKey{app, c.CacheBytes, c.BlockSize, c.Assoc}
			free, ok := bounds[bk]
			if !ok {
				fp, _ := app.footprintOf(ctx, opts.Cache) // resolved above, so kept: no error
				free = fp.EvictionFree(c.CacheBytes, c.BlockSize, c.Assoc)
				bounds[bk] = free
			}
			if free {
				cfg.CacheBytes, cfg.Assoc = 0, 0
				c.CacheBytes = 0
			}
		}
		if c.CacheBytes == 0 {
			c.Assoc = 0 // an infinite cache has no sets
		}
		pol, _ := c.resolvePolicy() // Validate passed; the bus engine's is the zero Policy
		key := cellKey{
			engine: c.Engine, protocol: c.Protocol, policy: pol, nodes: c.Nodes,
			cacheBytes: c.CacheBytes, blockSize: c.BlockSize, assoc: c.Assoc,
			hysteresis: c.Hysteresis, dirPointers: c.DirPointers, freeDrops: c.FreeDropNotifications,
		}
		if res := app.recall(key); res != nil {
			reuse(i, res)
			continue
		}
		if j, ok := first[jobKey{app, key}]; ok {
			jobs[j].dups = append(jobs[j].dups, i)
			continue
		}
		first[jobKey{app, key}] = len(jobs)
		jobs = append(jobs, cellJob{cell: i, cfg: cfg, app: app, key: key})
	}
	return jobs, nil
}

// creditReused accounts a cell answered by another run's result. The
// cell's accesses, classifier transitions and migrations go to cellStats,
// the cell's own RunConfig.Stats, as its own run would have pushed them,
// so sweep totals do not depend on sharing; AccessesReused counts the
// same accesses. A cell without Stats, such as an accuracy or
// machine-size cell, pushes none. The reuse count and the cell's
// completion go to the sweep's st.
func creditReused(st, cellStats *telemetry.RunStats, res *RunResult) {
	if cellStats != nil {
		cellStats.Accesses.Add(res.Accesses)
		switch {
		case res.Directory != nil:
			c := res.Directory.Counters
			cellStats.Transitions.Add(c.Classifications + c.Declassified)
			cellStats.Migrations.Add(c.Migrations)
		case res.Bus != nil:
			cellStats.Migrations.Add(res.Bus.Migrations)
		}
		cellStats.AccessesReused.Add(res.Accesses)
	}
	if st != nil {
		st.CellsReused.Add(1)
		st.CellsDone.Add(1)
	}
}

// footprintOf returns the App's footprint, streaming one pass over the
// trace the first time a sweep needs it. fpMu makes the pass single-flight
// across concurrent sweeps; a failed pass is not kept, so a later sweep
// tries again.
func (a *App) footprintOf(ctx context.Context, cache *trace.SegmentCache) (*Footprint, error) {
	a.fpMu.Lock()
	defer a.fpMu.Unlock()
	if a.footprint != nil {
		return a.footprint, nil
	}
	// The pass opens its source the way a 16-byte directory cell's run
	// does, on the widest machine, since no engine checks its nodes. A
	// folded app's kept accesses touch exactly the (node, 16-byte block)
	// pairs of the full trace: every silent repeat shares its kept
	// access's node and granule.
	src, err := a.bind(RunConfig{Engine: EngineDirectory, Nodes: memory.MaxNodes, BlockSize: footprintGranule, Cache: cache}).openSource()
	if err != nil {
		return nil, err
	}
	fp, err := NewFootprint(ctx, src)
	cerr := src.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	a.footprint = fp
	return fp, nil
}

// recall returns the App's remembered result for key, or nil.
func (a *App) recall(key cellKey) *RunResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.memo[key]
}

// remember keeps a finished cell's result for later sweeps. A result
// holds no engine, only its counters and, for the directory engine, its
// verdicts and histogram.
func (a *App) remember(key cellKey, res *RunResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.memo == nil {
		a.memo = make(map[cellKey]*RunResult)
	}
	a.memo[key] = res
}

// each is the one way a pass spends the sweep's budget of Parallelism ×
// Shards goroutines: it runs fn(0) … fn(n-1) on runIndexed, schedule(n)
// of them at once, and passes each call the shards it is granted. A call
// that runs simulations spends the grant (runCells gives it to Run, and
// NodeCountSweepApps to a unit's cells); a preparation or analysis pass
// ignores it.
func (o Options) each(n int, fn func(i, shards int) error) error {
	width, perJob := o.schedule(n)
	return runIndexed(o.ctx(), n, width, func(i int) error { return fn(i, perJob) })
}

// schedule is how each spends the budget of workers × shards goroutines
// on n jobs: width jobs run at once, each granted perJob shards
// (poolShards caps a cell's grant at its own request).
func (o Options) schedule(n int) (width, perJob int) {
	budget := o.workers() * shardBudget(o.Shards)
	width = min(n, budget)
	return width, budget / max(width, 1)
}

// shardBudget resolves a Shards value to the shard count a sweep budgets
// for: -1 is one per GOMAXPROCS, 0 (and an invalid count, which Run
// reports) is 1. directory.ResolveShards still rounds each cell's count.
func shardBudget(shards int) int {
	if shards == -1 {
		return runtime.GOMAXPROCS(0)
	}
	return max(shards, 1)
}

// poolShards is the Shards a sweep cell runs with when it is granted
// perJob shards: its own request capped at perJob, and 1 for a timing
// cell. An invalid count is kept, so Run reports it.
func (c RunConfig) poolShards(perJob int) int {
	switch {
	case c.Shards < -1:
		return c.Shards
	case c.Engine == EngineTiming:
		return 1
	}
	return min(shardBudget(c.Shards), perJob)
}

// workers resolves an Options.Parallelism value (0 = GOMAXPROCS) to a
// positive worker count.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
