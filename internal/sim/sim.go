// Package sim drives the trace-driven experiments of §4: it prepares the
// synthetic application traces, computes page placements, runs the
// directory and bus systems across parameter sweeps, and renders the
// paper's tables.
//
// Trace-driven simulation is two-pass, as in the paper's methodology: a
// first pass over the trace profiles page usage to compute the "good static
// placement" of §3.3, and the second pass simulates the protocol.
package sim

import (
	"context"
	"fmt"
	"sync"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/placement"
	"migratory/internal/snoop"
	"migratory/internal/stats"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// PageSize is fixed at 4 KB in both of the paper's simulators (§3.3).
const PageSize = 4096

// Options configures an experiment sweep.
type Options struct {
	// Context, when non-nil, cancels a sweep: no new cell starts after the
	// context is done, cells in flight abort within a few thousand
	// accesses, and the sweep returns ctx.Err(). nil behaves like
	// context.Background().
	Context context.Context
	// Nodes is the processor count (paper: 16).
	Nodes int
	// Seed drives the workload generators.
	Seed int64
	// Length overrides each profile's default trace length (0 = default).
	Length int
	// Apps restricts the applications (nil = all five).
	Apps []string
	// Policies restricts the protocols (nil = the paper's four).
	Policies []core.Policy
	// Stream makes PrepareApp build streaming generator-backed apps instead
	// of materialized traces: every simulation cell opens its own lazily
	// generated source, so a sweep's trace memory is O(1) in the trace
	// length (at the cost of regenerating the trace once per cell). Results
	// are bit-identical to the materialized path.
	Stream bool
	// Parallelism bounds the worker goroutines the sweep drivers fan
	// independent cells out on (0 = runtime.GOMAXPROCS(0), 1 = fully
	// sequential); with Shards it sets the sweep's goroutine budget (see
	// Shards). Every cell simulates a private System over a shared
	// read-only trace, so results are deterministic — bit-identical to a
	// sequential run — regardless of the setting or the scheduling.
	Parallelism int
	// Shards splits an *individual* untimed directory/bus run across
	// engine shards by cache-set index (accesses to different sets never
	// interact, so counters, metrics, and classifier verdicts stay
	// bit-identical to a sequential run). 0 and 1 run sequentially, -1 is
	// one shard per GOMAXPROCS; directory.ResolveShards rounds each run's
	// count down to a power of two capped at the per-cache set count.
	// Parallelism composes with Shards multiplicatively: a sweep's budget
	// is workers × shards goroutines live at once, and every pass of the
	// sweep spends it through Options.each, on whole cells first: app
	// preparation, the footprint and ground-truth passes, the machine-size
	// sweep's units and the cells themselves. A pass with at least that
	// many cells runs that many unsharded cells at once; a shorter one
	// gives each cell an even share of the budget, never more than Shards.
	// Timing cells always run unsharded (their bus serializes transactions
	// globally), so a timing sweep runs more cells at once instead.
	Shards int
	// Cache, when non-nil, is the shared decoded-segment cache every cell
	// of the sweep consults before decoding an indexed (MTR3) trace file:
	// the first cell decodes and folds each segment once and the rest
	// replay the shared immutable segments, so decode CPU scales with the
	// trace, not the cell count. Purely a throughput knob; results are
	// bit-identical with or without it. Sweeps over in-memory or generated
	// traces ignore it.
	Cache *trace.SegmentCache
	// Probes, when non-nil, is called once per simulation cell to build the
	// probe that cell's System is instrumented with (a nil return leaves the
	// cell unprobed). Cells run concurrently on worker goroutines under
	// Parallelism > 1, so the factory must be safe for concurrent calls and
	// must return a distinct probe per cell — probes themselves are invoked
	// only from their own cell's goroutine. Each cell's probe is recorded on
	// the resulting Cell/BusCell, and cells are assembled in paper order, so
	// per-cell MetricsProbes can be merged deterministically afterwards
	// (obs.MergeMetrics), matching a sequential run regardless of
	// scheduling. variant is the policy or bus-protocol name; blockSize is
	// 16 for bus cells.
	Probes func(app, variant string, cacheBytes, blockSize int) obs.Probe
	// Stats, when non-nil, receives live run telemetry
	// (internal/telemetry): every cell's engine pushes access/batch/
	// transition counters at batch granularity, the demux stage accounts
	// shard queue depth and producer stalls, and the sweep drivers track
	// cell progress (CellsDone/CellsTotal) for ETA reporting. One RunStats
	// may be shared across a whole sweep — all fields are atomic sums.
	Stats *telemetry.RunStats
}

// ctx resolves Options.Context (nil = context.Background()).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 16
	}
	if o.Seed == 0 {
		o.Seed = 1993
	}
	if len(o.Apps) == 0 {
		for _, p := range workload.Profiles() {
			o.Apps = append(o.Apps, p.Name)
		}
	}
	if len(o.Policies) == 0 {
		o.Policies = core.Policies()
	}
	return o
}

// App is a prepared application: a re-openable trace source and the
// usage-based placement computed from a profiling pass over it. Every
// simulation cell of a sweep opens its own source, so cells can run
// concurrently and a streaming app never materializes its trace.
//
// An App from PrepareApp (without Stream) or NewFoldedApp holds its trace
// folded (trace.Folded): the kept accesses, which carry the silent repeats
// folded into them, and a 2-byte replay tape. An App from NewTraceFileApp
// with a segment cache reads a file whose cached segments are folded one
// by one. The cells that folding is exact for replay the kept accesses
// (bind); Open replays the exact trace.
type App struct {
	Name      string
	Placement placement.Policy
	open      func() (trace.Source, error)
	// openKept opens the kept accesses: a folded trace's OpenKept, or the
	// kept face of a cached trace file. It is nil for an App built by
	// NewApp or NewSourceApp (a slice, an uncached file, a -stream
	// generator), whose cells all replay open's source. keptNodes is the
	// node count the kept accesses were folded over.
	openKept  func() (trace.Source, error)
	keptNodes int

	// fpMu serializes the footprint pass; footprint is nil until a sweep
	// first needs it (footprintOf).
	fpMu      sync.Mutex
	footprint *Footprint
	// mu guards memo, the finished results of this App's shared sweep
	// cells by key (runCells).
	mu   sync.Mutex
	memo map[cellKey]*RunResult
}

// Open returns a fresh source positioned at the first access: the exact
// trace, whatever form the App holds it in. The caller must Close it.
// Concurrent opens are safe; each returned source is for a single
// goroutine.
func (a *App) Open() (trace.Source, error) { return a.open() }

// bind points cfg, a cell over the App, at the App's trace: it sets
// OpenSource and, for the directory engine, PlacementPolicy. The cell
// replays the kept accesses, whose batch kernels credit the folded
// repeats, when folding is exact for it (keptExact); every other cell, a
// timing cell included, replays Open, the exact trace.
func (a *App) bind(cfg RunConfig) RunConfig {
	if cfg.Engine == EngineDirectory {
		cfg.PlacementPolicy = a.Placement
	}
	cfg.OpenSource = a.Open
	if a.openKept != nil && cfg.withDefaults().keptExact(a.keptNodes) {
		cfg.OpenSource = a.openKept
	}
	return cfg
}

// keptExact reports whether replaying kept accesses folded over keptNodes
// nodes gives c, a defaulted config, exactly the exact trace's result: c
// is an unprobed directory or bus run whose blocks lie between
// trace.FoldGranule and trace.FoldRegion bytes, unless it runs UpdateOnce
// (an update write can leave its line shared, so the folded writes after
// it are not silent and the bus kernel refuses them). Its machine must
// also have every node the kept accesses were folded over, so that an
// access naming a node beyond it fails as it does in the exact trace, at
// the same step. It is the one place that decides a run's trace form:
// sweep cells ask it through bind, a single run over a cached trace file
// through openRunSource.
func (c RunConfig) keptExact(keptNodes int) bool {
	return c.Probes == nil && keptNodes <= c.Nodes &&
		(c.Engine == EngineDirectory || c.Engine == EngineBus && c.Protocol != snoop.UpdateOnce.String()) &&
		c.BlockSize >= trace.FoldGranule && c.BlockSize <= trace.FoldRegion
}

// PrepareApp generates the trace for one application and computes the
// usage-based static placement over it. The geometry used for placement is
// page-granular, so one preparation serves every block size. The
// generator is streamed once, and the trace is kept only in folded form.
// With opts.Stream the app is generator-backed instead: the trace is never
// held, each Open replaying the generation lazily.
func PrepareApp(name string, opts Options) (*App, error) {
	opts = opts.withDefaults()
	prof, err := workload.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	nodes, seed, length := opts.Nodes, opts.Seed, opts.Length
	if opts.Stream {
		return NewSourceApp(name, func() (trace.Source, error) {
			return workload.NewSource(prof, nodes, seed, length)
		}, nodes)
	}
	src, err := workload.NewSource(prof, nodes, seed, length)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return NewFoldedApp(name, src, nodes, src.Len())
}

// PrepareApps prepares every application in opts.Apps (nil = all five),
// in that order, fanning the generation and placement work out over the
// sweep's goroutine budget (Options.each). The returned apps are immutable
// and shared read-only by every simulation cell, so one preparation can
// serve any number of sweeps through their *Apps variants.
func PrepareApps(opts Options) ([]*App, error) {
	opts = opts.withDefaults()
	apps := make([]*App, len(opts.Apps))
	err := opts.each(len(apps), func(i, _ int) error {
		app, err := PrepareApp(opts.Apps[i], opts)
		if err != nil {
			return err
		}
		apps[i] = app
		return nil
	})
	if err != nil {
		return nil, err
	}
	return apps, nil
}

// NewApp wraps an externally supplied trace (for example one read from a
// tracegen file) with a usage-based placement so it can drive the sweeps
// exactly like a built-in application. Opened sources share the slice
// read-only; the caller must not mutate it.
func NewApp(name string, accs []trace.Access, nodes int) *App {
	geom := memory.MustGeometry(16, PageSize) // block size irrelevant for pages
	return &App{
		Name:      name,
		Placement: placement.UsageBased(accs, geom, nodes),
		open: func() (trace.Source, error) {
			return trace.NewSliceSource(accs), nil
		},
	}
}

// noShortcuts, set only by tests, turns off every exact shortcut the
// sweeps take: NewFoldedApp holds the trace unfolded, as a plain slice
// (NewApp), and planCells runs every cell as configured, neither shared
// nor remembered, with no finite cache run as the infinite one, so no
// section reads verdicts an earlier sweep kept. A test compares every
// report with and without them (TestFoldTwin).
var noShortcuts bool

// NewFoldedApp prepares an App from one pass over src, which the caller
// closes: a tee feeds each batch to the usage-placement profiler and to
// the folder, so the full trace is never held. sizeHint, when positive, is
// src's length, which sizes the replay tape exactly. A trace the folder
// refuses (an access naming a node at or beyond nodes) fails here, with
// the folder's error.
func NewFoldedApp(name string, src trace.Source, nodes, sizeHint int) (*App, error) {
	if noShortcuts {
		accs, err := trace.ReadAll(src)
		if err != nil {
			return nil, fmt.Errorf("sim: profiling %s: %w", name, err)
		}
		return NewApp(name, accs, nodes), nil
	}
	geom := memory.MustGeometry(16, PageSize) // block size irrelevant for pages
	tee := &foldTee{src: src, folder: trace.NewFolder(nodes, sizeHint)}
	pl, err := placement.UsageBasedSource(tee, geom, nodes)
	if err != nil {
		return nil, fmt.Errorf("sim: profiling %s: %w", name, err)
	}
	folded, err := tee.folder.Folded()
	if err != nil {
		return nil, fmt.Errorf("sim: folding %s: %w", name, err)
	}
	return &App{
		Name:      name,
		Placement: pl,
		open:      func() (trace.Source, error) { return folded.Open(), nil },
		openKept:  func() (trace.Source, error) { return folded.OpenKept(), nil },
		keptNodes: nodes,
	}, nil
}

// foldTee is the Reader NewFoldedApp's profiling pass drains: each batch
// it reads from src also goes to the folder, whose refusal ends the pass.
type foldTee struct {
	src    trace.Reader
	folder *trace.Folder
}

// NextBatch implements trace.BatchReader.
func (t *foldTee) NextBatch(buf []trace.Access) (int, error) {
	n, err := trace.FillBatch(t.src, buf)
	if ferr := t.folder.Add(buf[:n]); ferr != nil {
		return 0, ferr
	}
	return n, err
}

// Next implements trace.Reader.
func (t *foldTee) Next() (trace.Access, error) {
	var buf [1]trace.Access
	_, err := t.NextBatch(buf[:])
	return buf[0], err
}

// NewSourceApp builds an app from an arbitrary re-openable source factory
// (a trace file, a lazy generator). The placement profiling pass opens and
// drains one source; simulation cells open their own.
func NewSourceApp(name string, open func() (trace.Source, error), nodes int) (*App, error) {
	src, err := open()
	if err != nil {
		return nil, err
	}
	return newProfiledApp(name, src, open, nodes)
}

// NewTraceFileApp builds an app over the v3 trace file at path, which
// every cell re-opens and re-decodes, so a traced sweep's trace memory is
// bounded by cache, not by the file. Sources open with decoders decode
// workers (0 = GOMAXPROCS) and share cache, which holds each decoded
// segment folded. With a cache and a header that names the trace's node
// count, the cells folding is exact for (bind) read the file's kept face
// (trace.IndexedFileSource.WithKept). Without a cache every cell reads
// the exact stream. The placement profiling pass reads the exact stream.
func NewTraceFileApp(path string, decoders int, cache *trace.SegmentCache, nodes int) (*App, error) {
	openFile := func() (*trace.IndexedFileSource, error) {
		return trace.OpenFileParallelCache(path, decoders, cache)
	}
	open := func() (trace.Source, error) {
		src, err := openFile()
		if err != nil {
			return nil, err
		}
		return src, nil
	}
	src, err := openFile()
	if err != nil {
		return nil, err
	}
	hdr := src.Header()
	app, err := newProfiledApp(path, src, open, nodes)
	if err != nil {
		return nil, err
	}
	if cache != nil && hdr.Nodes > 0 && !noShortcuts {
		app.keptNodes = hdr.Nodes
		app.openKept = func() (trace.Source, error) {
			src, err := openFile()
			if err != nil {
				return nil, err
			}
			return src.WithKept(), nil
		}
	}
	return app, nil
}

// newProfiledApp profiles src, one source open yields, for the usage
// placement and closes it. The App's cells open their own sources.
func newProfiledApp(name string, src trace.Source, open func() (trace.Source, error), nodes int) (*App, error) {
	geom := memory.MustGeometry(16, PageSize) // block size irrelevant for pages
	pl, err := placement.UsageBasedSource(src, geom, nodes)
	cerr := src.Close()
	if err != nil {
		return nil, fmt.Errorf("sim: profiling %s: %w", name, err)
	}
	if cerr != nil {
		return nil, cerr
	}
	return &App{Name: name, Placement: pl, open: open}, nil
}

// Cell is one protocol run's outcome.
type Cell struct {
	App        string
	Policy     core.Policy
	CacheBytes int
	BlockSize  int
	Msgs       cost.Msgs
	Counters   directory.Counters
	// Probe is the probe Options.Probes built for this cell (nil if none).
	// Under Options.Shards > 1 the factory runs once per shard and Probe is
	// the shard probes merged in shard order when they are all
	// *obs.MetricsProbe (nil when they cannot be merged).
	Probe obs.Probe
}

// Reduction returns the percentage total-message reduction of this cell
// relative to base (normally the conventional cell of the same row).
func (c Cell) Reduction(base Cell) float64 { return cost.Reduction(base.Msgs, c.Msgs) }

// dirCell is one directory sweep cell: the Cell it reports, the RunConfig
// Run executes for it, and the per-shard probes that run builds.
type dirCell struct {
	Cell
	cfg    RunConfig
	probes *[]obs.Probe
}

func newDirCell(app *App, opts Options, policy core.Policy, cacheBytes, blockSize int) dirCell {
	probes, built := shardProbes(opts, app.Name, policy.Name, cacheBytes, blockSize)
	return dirCell{
		Cell: Cell{App: app.Name, Policy: policy, CacheBytes: cacheBytes, BlockSize: blockSize},
		cfg: app.bind(RunConfig{
			Engine:     EngineDirectory,
			Nodes:      opts.Nodes,
			CacheBytes: cacheBytes,
			BlockSize:  blockSize,
			Shards:     opts.Shards,
			Probes:     probes,
			Stats:      opts.Stats,
			Cache:      opts.Cache,
			policy:     &policy,
		}),
		probes: built,
	}
}

// done folds the cell's Run result into its Cell.
func (d dirCell) done(res *RunResult) Cell {
	c := d.Cell
	c.Msgs, c.Counters = res.Directory.Msgs, res.Directory.Counters
	c.Probe = mergeShardProbes(*d.probes)
	return c
}

// RunDirectoryCell simulates one (app, policy, cache size, block size)
// combination. It is a thin adapter over Run: the app supplies the source
// and prepared placement, the sweep identity builds the per-shard probes.
// The Table 2/3 sweeps describe their cells the same way.
func RunDirectoryCell(app *App, opts Options, policy core.Policy, cacheBytes, blockSize int) (Cell, error) {
	opts = opts.withDefaults()
	d := newDirCell(app, opts, policy, cacheBytes, blockSize)
	res, err := Run(opts.ctx(), d.cfg)
	if err != nil {
		return Cell{}, err
	}
	return d.done(res), nil
}

// Row is one application's results across the protocol list, at one cache
// and block size. Cells are ordered like Options.Policies.
type Row struct {
	App        string
	CacheBytes int
	BlockSize  int
	Cells      []Cell
}

// Sweep holds a full table's worth of rows in paper order: the outer
// grouping mirrors the paper (cache sizes for Table 2, block sizes for
// Table 3).
type Sweep struct {
	Options Options
	// Groups maps the outer parameter (cache bytes or block size) to rows.
	GroupValues []int
	Rows        map[int][]Row
	// GroupIsCache is true for Table 2 style sweeps.
	GroupIsCache bool
}

// Table2CacheSizes are the per-node cache capacities of Table 2.
var Table2CacheSizes = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// Table3BlockSizes are the block sizes of Table 3.
var Table3BlockSizes = []int{16, 32, 64, 128, 256}

// Table2 reproduces the paper's Table 2 sweep: message counts by cache
// size, application, and protocol at 16-byte blocks.
func Table2(opts Options) (*Sweep, error) {
	return directorySweep(opts, nil, Table2CacheSizes, nil, true)
}

// Table3 reproduces Table 3: message counts by block size with infinite
// caches.
func Table3(opts Options) (*Sweep, error) {
	return directorySweep(opts, nil, nil, Table3BlockSizes, false)
}

// Table2Apps and Table3Apps run the same sweeps over caller-prepared apps
// (for example external traces wrapped with NewApp).
func Table2Apps(apps []*App, opts Options) (*Sweep, error) {
	return directorySweep(opts, apps, Table2CacheSizes, nil, true)
}

// Table3Apps is the block-size sweep over caller-prepared apps.
func Table3Apps(apps []*App, opts Options) (*Sweep, error) {
	return directorySweep(opts, apps, nil, Table3BlockSizes, false)
}

func directorySweep(opts Options, apps []*App, cacheSizes, blockSizes []int, groupIsCache bool) (*Sweep, error) {
	opts = opts.withDefaults()
	sw := &Sweep{Options: opts, Rows: make(map[int][]Row), GroupIsCache: groupIsCache}
	if groupIsCache {
		sw.GroupValues = cacheSizes
	} else {
		sw.GroupValues = blockSizes
	}
	if apps == nil {
		var err error
		if apps, err = PrepareApps(opts); err != nil {
			return nil, err
		}
	}

	// One cell per (app, group, policy) in paper order; each consecutive
	// run of len(Policies) cells is one row.
	var cells []dirCell
	var cfgs []RunConfig
	var cellApps []*App
	for _, app := range apps {
		for _, gv := range sw.GroupValues {
			cacheBytes, blockSize := gv, 16
			if !groupIsCache {
				cacheBytes, blockSize = 0, gv
			}
			for _, pol := range opts.Policies {
				d := newDirCell(app, opts, pol, cacheBytes, blockSize)
				cells, cfgs, cellApps = append(cells, d), append(cfgs, d.cfg), append(cellApps, app)
			}
		}
	}
	out := make([]Cell, len(cells))
	err := runCells(opts, cfgs, cellApps,
		func(i int) string { return cells[i].App + "/" + cells[i].Policy.Name },
		func(i int, res *RunResult) { out[i] = cells[i].done(res) })
	if err != nil {
		return nil, err
	}

	nPols := len(opts.Policies)
	for i := 0; i < len(out); i += nPols {
		row := Row{App: out[i].App, CacheBytes: out[i].CacheBytes, BlockSize: out[i].BlockSize, Cells: out[i : i+nPols : i+nPols]}
		gv := row.CacheBytes
		if !groupIsCache {
			gv = row.BlockSize
		}
		sw.Rows[gv] = append(sw.Rows[gv], row)
	}
	return sw, nil
}

// Render produces the paper-style table: per group, one row per app with
// w/o-data and w/-data counts (in thousands) per protocol and percentage
// reduction relative to the first (conventional) protocol.
func (sw *Sweep) Render() *stats.Table {
	tab := &stats.Table{}
	header := []string{"", ""}
	for i, p := range sw.Options.Policies {
		header = append(header, p.Name+" w/o", "w/")
		if i > 0 {
			header = append(header, "%")
		}
	}
	tab.Header = header
	for _, gv := range sw.GroupValues {
		label := stats.KB(gv)
		if !sw.GroupIsCache {
			label = fmt.Sprintf("%d-byte", gv)
		}
		tab.Add(label)
		for _, row := range sw.Rows[gv] {
			cells := []string{"", row.App}
			base := row.Cells[0]
			for i, c := range row.Cells {
				cells = append(cells, stats.Thousands(c.Msgs.Short), stats.Thousands(c.Msgs.Data))
				if i > 0 {
					cells = append(cells, stats.Percent(c.Reduction(base)))
				}
			}
			tab.Add(cells...)
		}
	}
	return tab
}

// CostRatioTable renders §4.1's weighted cost analysis for a sweep: the
// percentage reduction of each adaptive protocol under data:short cost
// ratios of 1, 2, and 4, plus the per-16-bytes model.
func (sw *Sweep) CostRatioTable() *stats.Table {
	tab := &stats.Table{
		Header: []string{"", "", "protocol", "1:1", "2:1", "4:1", "per-16B"},
	}
	for _, gv := range sw.GroupValues {
		label := stats.KB(gv)
		if !sw.GroupIsCache {
			label = fmt.Sprintf("%d-byte", gv)
		}
		for _, row := range sw.Rows[gv] {
			base := row.Cells[0]
			for _, c := range row.Cells[1:] {
				tab.Add(label, row.App, c.Policy.Name,
					stats.Percent(cost.Reduction(base.Msgs, c.Msgs)),
					stats.Percent(cost.WeightedReduction(base.Msgs, c.Msgs, 2)),
					stats.Percent(cost.WeightedReduction(base.Msgs, c.Msgs, 4)),
					stats.Percent(cost.PerBytesReduction(base.Msgs, c.Msgs, row.BlockSize)))
			}
		}
	}
	return tab
}

// BusCell is one bus-protocol run.
type BusCell struct {
	App        string
	Protocol   snoop.Protocol
	CacheBytes int
	Counts     snoop.Counts
	// Probe is the probe Options.Probes built for this cell (nil if none).
	Probe obs.Probe
}

// BusRow groups the protocols for one app and cache size.
type BusRow struct {
	App        string
	CacheBytes int
	Cells      []BusCell
}

// BusSweep holds §4.3's experiment.
type BusSweep struct {
	Options    Options
	CacheSizes []int
	Protocols  []snoop.Protocol
	Rows       map[int][]BusRow
}

// BusCacheSizes are the cache sizes §4.3 quotes (64 KB and 1 MB).
var BusCacheSizes = []int{64 << 10, 1 << 20}

// RunBus runs the bus-based comparison of §4.3 over the given cache sizes
// (nil = BusCacheSizes) and protocols (nil = MESI, Adaptive,
// AdaptiveMigrateFirst). It shares the directory sweeps' trace-preparation
// path (PrepareApp) and fans the independent (app, cache, protocol) cells
// out over the sweep's goroutine budget (runCells).
func RunBus(opts Options, cacheSizes []int, protocols []snoop.Protocol) (*BusSweep, error) {
	opts = opts.withDefaults()
	apps, err := PrepareApps(opts)
	if err != nil {
		return nil, err
	}
	return RunBusApps(apps, opts, cacheSizes, protocols)
}

// RunBusApps is RunBus over caller-prepared apps (external traces wrapped
// with NewApp or NewSourceApp).
func RunBusApps(apps []*App, opts Options, cacheSizes []int, protocols []snoop.Protocol) (*BusSweep, error) {
	opts = opts.withDefaults()
	if cacheSizes == nil {
		cacheSizes = BusCacheSizes
	}
	if protocols == nil {
		protocols = []snoop.Protocol{snoop.MESI, snoop.Adaptive, snoop.AdaptiveMigrateFirst}
	}
	sw := &BusSweep{Options: opts, CacheSizes: cacheSizes, Protocols: protocols, Rows: make(map[int][]BusRow)}

	// One cell per (app, cache, protocol) in paper order; each consecutive
	// run of len(protocols) cells is one row.
	var cells []BusCell
	var cfgs []RunConfig
	var cellApps []*App
	var probes []*[]obs.Probe
	for _, app := range apps {
		for _, cb := range cacheSizes {
			for _, p := range protocols {
				factory, built := shardProbes(opts, app.Name, p.String(), cb, 16)
				cells = append(cells, BusCell{App: app.Name, Protocol: p, CacheBytes: cb})
				probes = append(probes, built)
				cellApps = append(cellApps, app)
				cfgs = append(cfgs, app.bind(RunConfig{
					Engine:     EngineBus,
					Nodes:      opts.Nodes,
					Protocol:   p.String(),
					CacheBytes: cb,
					Shards:     opts.Shards,
					Probes:     factory,
					Stats:      opts.Stats,
					Cache:      opts.Cache,
				}))
			}
		}
	}
	err := runCells(opts, cfgs, cellApps,
		func(i int) string { return cells[i].App + "/" + cells[i].Protocol.String() },
		func(i int, res *RunResult) {
			cells[i].Counts, cells[i].Probe = res.Bus.Counts, mergeShardProbes(*probes[i])
		})
	if err != nil {
		return nil, err
	}

	nProts := len(protocols)
	for i := 0; i < len(cells); i += nProts {
		row := BusRow{App: cells[i].App, CacheBytes: cells[i].CacheBytes, Cells: cells[i : i+nProts : i+nProts]}
		sw.Rows[row.CacheBytes] = append(sw.Rows[row.CacheBytes], row)
	}
	return sw, nil
}

// Render produces the §4.3 summary: savings relative to the first
// (conventional) protocol under both bus cost models.
func (sw *BusSweep) Render() *stats.Table {
	tab := &stats.Table{
		Header: []string{"cache", "app", "protocol", "txns", "save%(model1)", "save%(model2)"},
	}
	for _, cb := range sw.CacheSizes {
		for _, row := range sw.Rows[cb] {
			base := row.Cells[0]
			b1 := float64(base.Counts.Total())
			b2 := float64(base.Counts.Model2(false))
			for i, c := range row.Cells {
				if i == 0 {
					tab.Add(stats.KB(cb), row.App, c.Protocol.String(),
						fmt.Sprintf("%d", c.Counts.Total()), "", "")
					continue
				}
				m1 := 100 * (1 - float64(c.Counts.Total())/b1)
				m2 := 100 * (1 - float64(c.Counts.Model2(true))/b2)
				tab.Add(stats.KB(cb), row.App, c.Protocol.String(),
					fmt.Sprintf("%d", c.Counts.Total()),
					stats.Percent(m1), stats.Percent(m2))
			}
		}
	}
	return tab
}
