package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"migratory/internal/core"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// busSweepProtocols are the five protocols cmd/paper's §4.3 section runs.
var busSweepProtocols = []snoop.Protocol{
	snoop.MESI, snoop.Adaptive, snoop.AdaptiveMigrateFirst, snoop.Symmetry, snoop.UpdateOnce,
}

// evictionRun runs cfg and returns its result with the number of lines its
// caches evicted. A directory eviction is a write-back or a clean drop;
// the bus counts no clean drops, so its count comes from a second run on
// a bare engine.
func evictionRun(t *testing.T, cfg RunConfig) (*RunResult, uint64) {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Directory; d != nil {
		return res, d.Counters.WriteBacks + d.Counters.CleanDrops
	}
	c := cfg.withDefaults()
	prot, err := snoop.ProtocolByName(c.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := snoop.NewSharded(c.busConfig(memory.MustGeometry(c.BlockSize, PageSize), prot), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.openSource()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := sys.RunSource(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	_, _, ev := sys.CacheStats()
	return res, ev
}

// TestEvictionFreeCellsMatchInfinite pins the bound the sweeps use to run a
// finite cache as the infinite one. For every default app at its default
// length, every Table 2 size and both §4.3 bus sizes the footprint calls
// eviction-free must evict nothing (no cache evictions, write-backs or
// clean drops), and its RunResult must marshal to the infinite run's
// bytes under every directory policy and bus protocol. It also requires
// the bound to hold and to fail somewhere, so neither side goes untested.
func TestEvictionFreeCellsMatchInfinite(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Every run is one goroutine, so -race adds only its slowdown.
		t.Skip("runs every default app at its default length")
	}
	apps, err := PrepareApps(Options{})
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		engine string
		name   string
		sizes  []int
	}
	var variants []variant
	for _, pol := range core.Policies() {
		variants = append(variants, variant{EngineDirectory, pol.Name, Table2CacheSizes})
	}
	for _, p := range busSweepProtocols {
		variants = append(variants, variant{EngineBus, p.String(), BusCacheSizes})
	}
	config := func(app *App, v variant, cacheBytes int) RunConfig {
		c := RunConfig{Engine: v.engine, CacheBytes: cacheBytes, OpenSource: app.Open}
		if v.engine == EngineDirectory {
			c.Policy, c.PlacementPolicy = v.name, app.Placement
		} else {
			c.Protocol = v.name
		}
		return c
	}
	held, failed := 0, 0
	for _, app := range apps {
		fp, err := app.footprintOf(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			var infinite []byte
			for _, cb := range v.sizes {
				if !fp.EvictionFree(cb, 16, 4) {
					failed++
					continue
				}
				held++
				if infinite == nil {
					res, _ := evictionRun(t, config(app, v, 0))
					infinite, _ = json.Marshal(res)
				}
				res, ev := evictionRun(t, config(app, v, cb))
				name := fmt.Sprintf("%s/%s/%dK", app.Name, v.name, cb>>10)
				if ev != 0 {
					t.Errorf("%s: %d evictions in an eviction-free cache", name, ev)
				}
				if b := res.Bus; b != nil && b.Counts.WriteBack != 0 {
					t.Errorf("%s: %d write-backs", name, b.Counts.WriteBack)
				}
				if got, _ := json.Marshal(res); string(got) != string(infinite) {
					t.Errorf("%s: finite result differs from the infinite one:\n%s\n%s", name, got, infinite)
				}
			}
		}
	}
	if held == 0 || failed == 0 {
		t.Fatalf("bound held for %d and failed for %d (app, variant, size) cells; want both > 0", held, failed)
	}
}

// allSweeps runs the three shared sweeps of cmd/paper (Table 2, Table 3,
// the §4.3 bus sweep) over apps and returns them.
func allSweeps(t *testing.T, apps []*App, opts Options) (*Sweep, *Sweep, *BusSweep) {
	t.Helper()
	sw2, err := Table2Apps(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	sw3, err := Table3Apps(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := RunBusApps(apps, opts, nil, busSweepProtocols)
	if err != nil {
		t.Fatal(err)
	}
	return sw2, sw3, bus
}

// freshCells runs every cell of the three sweeps one by one, each on a
// freshly prepared app, through the unshared RunDirectoryCell and Run, and
// returns them in sweep order (group, app, variant): Table 2 cells, Table
// 3 cells, bus cells.
func freshCells(t *testing.T, opts Options) ([]Cell, []Cell, []BusCell) {
	t.Helper()
	opts = opts.withDefaults()
	fresh := func(name string) *App {
		app, err := PrepareApp(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	dir := func(cacheBytes, blockSize int) []Cell {
		var out []Cell
		for _, name := range opts.Apps {
			for _, pol := range opts.Policies {
				c, err := RunDirectoryCell(fresh(name), opts, pol, cacheBytes, blockSize)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, c)
			}
		}
		return out
	}
	var t2, t3 []Cell
	for _, cb := range Table2CacheSizes {
		t2 = append(t2, dir(cb, 16)...)
	}
	for _, bs := range Table3BlockSizes {
		t3 = append(t3, dir(0, bs)...)
	}
	var bus []BusCell
	for _, cb := range BusCacheSizes {
		for _, name := range opts.Apps {
			for _, p := range busSweepProtocols {
				res, err := Run(context.Background(), RunConfig{
					Engine: EngineBus, Nodes: opts.Nodes, Protocol: p.String(), CacheBytes: cb, OpenSource: fresh(name).Open,
				})
				if err != nil {
					t.Fatal(err)
				}
				bus = append(bus, BusCell{App: name, Protocol: p, CacheBytes: cb, Counts: res.Bus.Counts})
			}
		}
	}
	return t2, t3, bus
}

// sweepCells flattens the sweeps' cells in sweep order, as freshCells
// returns them.
func sweepCells(sw2, sw3 *Sweep, bus *BusSweep) ([]Cell, []Cell, []BusCell) {
	flat := func(sw *Sweep) []Cell {
		var out []Cell
		for _, gv := range sw.GroupValues {
			for _, row := range sw.Rows[gv] {
				out = append(out, row.Cells...)
			}
		}
		return out
	}
	var busCells []BusCell
	for _, cb := range bus.CacheSizes {
		for _, row := range bus.Rows[cb] {
			busCells = append(busCells, row.Cells...)
		}
	}
	return flat(sw2), flat(sw3), busCells
}

// checkCells compares sweep cells with freshly run ones on identity and
// results (probes aside).
func checkCells(t *testing.T, label string, t2, t3 []Cell, bus []BusCell, w2, w3 []Cell, wbus []BusCell) {
	t.Helper()
	strip := func(cs []Cell) []Cell {
		out := append([]Cell(nil), cs...)
		for i := range out {
			out[i].Probe = nil
		}
		return out
	}
	if !reflect.DeepEqual(strip(t2), strip(w2)) {
		t.Errorf("%s: Table 2 cells differ from fresh one-by-one runs", label)
	}
	if !reflect.DeepEqual(strip(t3), strip(w3)) {
		t.Errorf("%s: Table 3 cells differ from fresh one-by-one runs", label)
	}
	if !reflect.DeepEqual(bus, wbus) {
		t.Errorf("%s: bus cells differ from fresh one-by-one runs", label)
	}
}

// TestSharedSweepsMatchFreshCells runs Table 2, Table 3 and the bus sweep
// twice over one set of apps (the second pass answered from the apps'
// memos) and requires every cell to equal the same cell run alone on a
// fresh app.
func TestSharedSweepsMatchFreshCells(t *testing.T) {
	opts := testOpts("MP3D", "Water", "Pthor")
	opts.Length = 30_000
	w2, w3, wbus := freshCells(t, opts)

	apps, err := PrepareApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		st := &telemetry.RunStats{}
		o := opts
		o.Stats = st
		t2, t3, bus := sweepCells(allSweeps(t, apps, o))
		checkCells(t, fmt.Sprintf("pass %d", pass), t2, t3, bus, w2, w3, wbus)
		total := uint64(len(w2) + len(w3) + len(wbus))
		if got := st.CellsDone.Load(); got != total {
			t.Errorf("pass %d: cells done = %d, want %d", pass, got, total)
		}
		reused := st.CellsReused.Load()
		if pass == 1 && (reused == 0 || reused >= total) {
			t.Errorf("pass 1: %d of %d cells reused, want some but not all", reused, total)
		}
		if pass == 2 && reused != total {
			t.Errorf("pass 2: %d of %d cells reused, want all", reused, total)
		}
	}
}

var errBroken = errors.New("broken source")

// brokenSource fails every read.
type brokenSource struct{ trace.Source }

func (brokenSource) Next() (trace.Access, error)           { return trace.Access{}, errBroken }
func (brokenSource) NextBatch([]trace.Access) (int, error) { return 0, errBroken }

// switchableApp returns an app over a generated trace whose sources fail
// while broken is set, and that calls hook (when non-nil) on every open.
func switchableApp(t *testing.T, name string, opts Options, broken *atomic.Bool, hook func()) *App {
	t.Helper()
	opts = opts.withDefaults()
	prof, err := PrepareApp(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewSourceApp(name, func() (trace.Source, error) {
		if hook != nil {
			hook()
		}
		src, err := prof.Open()
		if err != nil || !broken.Load() {
			return src, err
		}
		return brokenSource{src}, nil
	}, opts.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestFailedCellsAreNotShared checks that a sweep that failed or was
// cancelled leaves nothing behind: a later sweep over the same app
// succeeds and equals the cells run fresh.
func TestFailedCellsAreNotShared(t *testing.T) {
	opts := testOpts("Water")
	opts.Length = 20_000
	w2, w3, wbus := freshCells(t, opts)

	t.Run("failed", func(t *testing.T) {
		var broken atomic.Bool
		app := switchableApp(t, "Water", opts, &broken, nil)
		broken.Store(true)
		if _, err := Table3Apps([]*App{app}, opts); !errors.Is(err, errBroken) {
			t.Fatalf("Table 3 over a broken source: err = %v, want %v", err, errBroken)
		}
		if _, err := Table2Apps([]*App{app}, opts); !errors.Is(err, errBroken) {
			t.Fatalf("Table 2 over a broken source: err = %v, want %v", err, errBroken)
		}
		broken.Store(false)
		t2, t3, bus := sweepCells(allSweeps(t, []*App{app}, opts))
		checkCells(t, "after failure", t2, t3, bus, w2, w3, wbus)
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var opens atomic.Int32
		var broken atomic.Bool
		app := switchableApp(t, "Water", opts, &broken, func() {
			// Open 1 is the placement pass; cancel once cells are running.
			if opens.Add(1) == 4 {
				cancel()
			}
		})
		o := opts
		o.Context = ctx
		if _, _, err := func() (*Sweep, *Sweep, error) {
			sw2, err := Table2Apps([]*App{app}, o)
			if err != nil {
				return nil, nil, err
			}
			sw3, err := Table3Apps([]*App{app}, o)
			return sw2, sw3, err
		}(); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
		}
		t2, t3, bus := sweepCells(allSweeps(t, []*App{app}, opts))
		checkCells(t, "after cancellation", t2, t3, bus, w2, w3, wbus)
	})
}

// TestConcurrentSweepsShareApps runs two sweeps over the same apps at
// once (under -race in CI) and requires both to match fresh cells.
func TestConcurrentSweepsShareApps(t *testing.T) {
	opts := testOpts("MP3D", "Water")
	opts.Length = 20_000
	opts.Parallelism = 2
	w2, w3, wbus := freshCells(t, opts)
	apps, err := PrepareApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		t2, t3 []Cell
		bus    []BusCell
	}
	var outs [2]out
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw2, err := Table2Apps(apps, opts)
			if err != nil {
				t.Error(err)
				return
			}
			sw3, err := Table3Apps(apps, opts)
			if err != nil {
				t.Error(err)
				return
			}
			bus, err := RunBusApps(apps, opts, nil, busSweepProtocols)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i].t2, outs[i].t3, outs[i].bus = sweepCells(sw2, sw3, bus)
		}()
	}
	wg.Wait()
	for i, o := range outs {
		checkCells(t, fmt.Sprintf("sweep %d", i), o.t2, o.t3, o.bus, w2, w3, wbus)
	}
}

// TestProbedCellsRunUnshared checks that a sweep with Options.Probes still
// builds one probe per cell and simulates every cell, even over apps whose
// memos already hold every result.
func TestProbedCellsRunUnshared(t *testing.T) {
	opts := testOpts("MP3D", "Water")
	opts.Length = 20_000
	apps, err := PrepareApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	allSweeps(t, apps, opts) // fill the memos

	var probes atomic.Int64
	st := &telemetry.RunStats{}
	o := opts
	o.Stats = st
	o.Probes = func(app, variant string, cacheBytes, blockSize int) obs.Probe {
		probes.Add(1)
		return &obs.MetricsProbe{}
	}
	sw2, err := Table2Apps(apps, o)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := RunBusApps(apps, o, nil, busSweepProtocols)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(apps) * (len(Table2CacheSizes)*len(sw2.Options.Policies) + len(BusCacheSizes)*len(bus.Protocols))
	if got := probes.Load(); got != int64(cells) {
		t.Errorf("probes built = %d, want one per cell (%d)", got, cells)
	}
	if got := st.CellsReused.Load(); got != 0 {
		t.Errorf("probed sweep reused %d cells, want 0", got)
	}
	if got, want := st.Accesses.Load(), uint64(cells*opts.Length); got != want {
		t.Errorf("probed sweep simulated %d accesses, want %d", got, want)
	}
}

// TestRunDirectoryCellSimulates checks that RunDirectoryCell never answers
// from an app's memo: it simulates even a cell a sweep has finished.
func TestRunDirectoryCellSimulates(t *testing.T) {
	opts := testOpts("Water")
	opts.Length = 20_000
	apps, err := PrepareApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := Table2Apps(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := &telemetry.RunStats{}
	o := opts
	o.Stats = st
	c, err := RunDirectoryCell(apps[0], o, core.Basic, 1<<20, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches.Load() == 0 || st.Accesses.Load() != uint64(opts.Length) || st.CellsReused.Load() != 0 {
		t.Errorf("RunDirectoryCell: batches %d, accesses %d, reused %d; want a simulated run of %d accesses",
			st.Batches.Load(), st.Accesses.Load(), st.CellsReused.Load(), opts.Length)
	}
	var want Cell
	for _, sc := range sw2.Rows[1<<20][0].Cells {
		if sc.Policy == core.Basic {
			want = sc
		}
	}
	if c.Msgs != want.Msgs || c.Counters != want.Counters {
		t.Errorf("RunDirectoryCell = %+v, want the sweep's %+v", c.Msgs, want.Msgs)
	}
}

// TestSweepTotalsEqualCellSums checks the telemetry a sweep reports
// against the sum over its cells: accesses, classifier transitions and
// migrations are the same whether a cell simulated or was reused, and
// the reused accesses are the reused cells' share.
func TestSweepTotalsEqualCellSums(t *testing.T) {
	opts := testOpts("MP3D", "Water")
	opts.Length = 20_000
	apps, err := PrepareApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := &telemetry.RunStats{}
	o := opts
	o.Stats = st
	sw2, sw3, bus := allSweeps(t, apps, o)

	var cells, accesses, transitions, migrations uint64
	for _, sw := range []*Sweep{sw2, sw3} {
		for _, rows := range sw.Rows {
			for _, row := range rows {
				for _, c := range row.Cells {
					cells++
					accesses += c.Counters.Accesses
					transitions += c.Counters.Classifications + c.Counters.Declassified
					migrations += c.Counters.Migrations
				}
			}
		}
	}
	byName := map[string]*App{}
	for _, app := range apps {
		byName[app.Name] = app
	}
	for _, rows := range bus.Rows {
		for _, row := range rows {
			for _, c := range row.Cells {
				res, err := Run(context.Background(), RunConfig{
					Engine: EngineBus, Protocol: c.Protocol.String(), CacheBytes: c.CacheBytes, OpenSource: byName[c.App].Open,
				})
				if err != nil {
					t.Fatal(err)
				}
				cells++
				accesses += res.Accesses
				migrations += res.Bus.Migrations
			}
		}
	}
	if accesses != cells*uint64(opts.Length) {
		t.Fatalf("cells cover %d accesses, want %d per cell", accesses, opts.Length)
	}
	got := [...]uint64{st.CellsDone.Load(), st.Accesses.Load(), st.Transitions.Load(), st.Migrations.Load()}
	want := [...]uint64{cells, accesses, transitions, migrations}
	if got != want {
		t.Errorf("sweep totals (cells, accesses, transitions, migrations) = %v, want the cell sums %v", got, want)
	}
	reused := st.CellsReused.Load()
	if reused == 0 || st.AccessesReused.Load() != reused*uint64(opts.Length) {
		t.Errorf("reused %d cells covering %d accesses, want > 0 cells of %d accesses each",
			reused, st.AccessesReused.Load(), opts.Length)
	}
}
