package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"migratory/internal/core"
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
// reused. A reused directory result still answers EverMigratory from the
// verdicts its App kept. Cells with probes never share, and the timing
// model's sweep (ExecutionTimeApps) passes no apps.
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
	return runIndexed(ctx, len(jobs), opts.workers(), func(j int) error {
		jb := jobs[j]
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

// noMemo, set only by tests, makes planCells run every cell unshared, as
// configured: no result is reused or remembered and no finite cache runs
// as the infinite one, so a test can compare the reports with and without
// sharing (TestMemoTwin), as noFold does for folding.
var noMemo bool

// planCells turns a sweep's cells into the jobs that must run. Every
// shared cell is keyed first. A finite cache is keyed as infinite when its
// App's footprint proves it never evicts; the footprints of the Apps that
// need one are resolved up front, one App per worker. Then a cell whose
// key the App has remembered from an earlier sweep is answered at once
// through reuse(i, res), and cells sharing a key within this sweep become
// one job whose result folds into all of them, so no worker waits on
// another.
func planCells(opts Options, cells []RunConfig, apps []*App, reuse func(i int, res *RunResult)) ([]cellJob, error) {
	ctx := opts.ctx()
	shared := make([]bool, len(cells))
	var needFootprint []*App
	seen := make(map[*App]bool)
	for i, cfg := range cells {
		if noMemo || apps == nil || apps[i] == nil || cfg.Probes != nil || cfg.Engine == EngineTiming {
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
	err := runIndexed(ctx, len(needFootprint), opts.workers(), func(j int) error {
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
	// The pass opens its source the way a 16-byte cell's run does. A
	// folded app's kept accesses touch exactly the (node, 16-byte block)
	// pairs of the full trace: every silent repeat shares its kept
	// access's node and granule.
	src, err := RunConfig{OpenSource: a.cellSource(nil, footprintGranule), Cache: cache}.openSource()
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

// remember keeps a finished cell's result for later sweeps. A directory
// result keeps its classifier verdicts (EverMigratory) and drops the live
// engine it carries.
func (a *App) remember(key cellKey, res *RunResult) {
	kept := *res
	if res.dir != nil {
		kept.dir = nil
		kept.migratory = newBlockSet(res.dir.AppendEverMigratory(nil))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.memo == nil {
		a.memo = make(map[cellKey]*RunResult)
	}
	a.memo[key] = &kept
}

// workers resolves an Options.Parallelism value (0 = GOMAXPROCS) to a
// positive worker count.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
