package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"migratory/internal/core"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// renderReport renders every section of cmd/paper's report over apps, in
// the report's order and the way cmd/paper runs them: Table 2, Table 3,
// §4.1, §4.2, §4.3 with the update-once baseline, the accuracy section
// and, unless traced, the machine-size sweep over the prepared MP3D and
// Water apps. The tables print messages in thousands and no hit counts,
// so the bytes also carry every Table 2, Table 3 and bus cell's exact
// counters, and the run's access, transition and migration totals. It
// returns the bytes and the number of cells the accuracy and machine-size
// sections answered from earlier sweeps.
func renderReport(t *testing.T, apps []*App, opts Options, traced bool) ([]byte, uint64) {
	t.Helper()
	var b bytes.Buffer
	render := func(tabs ...interface{ String() string }) {
		for _, tab := range tabs {
			b.WriteString(tab.String())
		}
	}
	st := &telemetry.RunStats{}
	opts.Stats = st
	sw2, err := Table2Apps(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	sw3, err := Table3Apps(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	render(sw2.Render(), sw3.Render(), sw3.CostRatioTable())
	for _, sw := range []*Sweep{sw2, sw3} {
		for _, gv := range sw.GroupValues {
			for _, row := range sw.Rows[gv] {
				for _, c := range row.Cells {
					fmt.Fprintf(&b, "%s %s %d %d: %+v %+v\n", c.App, c.Policy.Name, c.CacheBytes, c.BlockSize, c.Msgs, c.Counters)
				}
			}
		}
	}

	execApps := apps
	if !traced {
		execApps = nil
		for _, app := range apps {
			if slices.Contains(ExecApps, app.Name) {
				execApps = append(execApps, app)
			}
		}
	}
	rows, err := ExecutionTimeApps(execApps, opts, core.Basic, 0)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := RunBusApps(apps, opts, nil, busSweepProtocols)
	if err != nil {
		t.Fatal(err)
	}
	render(RenderExec(rows, core.Basic), bus.Render())
	for _, cb := range bus.CacheSizes {
		for _, row := range bus.Rows[cb] {
			for _, c := range row.Cells {
				fmt.Fprintf(&b, "%s %s %d: %+v\n", c.App, c.Protocol, c.CacheBytes, c.Counts)
			}
		}
	}

	reusedBefore := st.CellsReused.Load()
	acc, err := ClassifierAccuracyApps(apps, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	render(RenderAccuracy(acc))
	if !traced {
		names := []string{"MP3D", "Water"}
		var keep []*App
		for _, app := range apps {
			if slices.Contains(names, app.Name) {
				keep = append(keep, app)
			}
		}
		sweeps, err := NodeCountSweepApps(names, nil, opts, keep)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range sweeps {
			render(RenderNodeCount(rows))
		}
	}
	fmt.Fprintf(&b, "accesses %d, transitions %d, migrations %d\n",
		st.Accesses.Load(), st.Transitions.Load(), st.Migrations.Load())
	return b.Bytes(), st.CellsReused.Load() - reusedBefore
}

// TestFoldTwin renders the whole report at -length 20000 over folded,
// shared apps, and again with every exact shortcut off (noShortcuts):
// unfolded apps, no per-App memo, no eviction-free bound, no verdicts
// kept from an earlier sweep. It requires the same bytes, and no cell
// reused with the shortcuts off.
func TestFoldTwin(t *testing.T) {
	opts := Options{Length: 20000}
	render := func() []byte {
		t.Helper()
		apps, err := PrepareApps(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			if (app.openKept == nil) != noShortcuts {
				t.Fatalf("%s: folded %v with noShortcuts %v", app.Name, app.openKept != nil, noShortcuts)
			}
		}
		out, reused := renderReport(t, apps, opts, false)
		if noShortcuts && reused != 0 {
			t.Errorf("with the shortcuts off, %d cells were reused", reused)
		}
		return out
	}
	fast := render()
	noShortcuts = true
	defer func() { noShortcuts = false }()
	if exact := render(); !bytes.Equal(fast, exact) {
		t.Fatalf("report with the shortcuts differs from the one without:\n%s\n---\n%s", fast, exact)
	}
}

// TestMemoTwin renders the accuracy and machine-size sections over
// folded apps that have run Table 3, and again over freshly prepared
// folded apps that have not, and requires the same bytes. After Table 3
// the accuracy cells and the 16-node machine-size cells must all be
// answered from its remembered cells, so the remembered verdicts and the
// memo keys are what the comparison checks against live runs.
func TestMemoTwin(t *testing.T) {
	opts := Options{Length: 20000}
	names := []string{"MP3D", "Water"}
	render := func(table3 bool) ([]byte, uint64) {
		t.Helper()
		apps, err := PrepareApps(opts)
		if err != nil {
			t.Fatal(err)
		}
		if table3 {
			if _, err := Table3Apps(apps, opts); err != nil {
				t.Fatal(err)
			}
		}
		var b bytes.Buffer
		st := &telemetry.RunStats{}
		o := opts
		o.Stats = st
		acc, err := ClassifierAccuracyApps(apps, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderAccuracy(acc).String())
		var keep []*App
		for _, app := range apps {
			if slices.Contains(names, app.Name) {
				keep = append(keep, app)
			}
		}
		sweeps, err := NodeCountSweepApps(names, nil, o, keep)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range sweeps {
			b.WriteString(RenderNodeCount(rows).String())
		}
		return b.Bytes(), st.CellsReused.Load()
	}
	shared, reused := render(true)
	// Five apps' accuracy cells for the three adaptive policies, and the
	// two apps' four 16-node cells.
	if want := uint64(5*3 + 2*4); reused != want {
		t.Errorf("accuracy and machine-size sweeps reused %d cells, want %d", reused, want)
	}
	if live, _ := render(false); !bytes.Equal(shared, live) {
		t.Fatalf("sections answered from Table 3's cells differ from live ones:\n%s\n---\n%s", shared, live)
	}
}

// TestTraceShortcutTwin is TestFoldTwin for a -trace run: it renders
// the report's sections over a small v3 trace file through a shared
// segment cache, and again uncached with every shortcut off, and requires
// the same bytes. The cached render must hit the segment cache.
func TestTraceShortcutTwin(t *testing.T) {
	path := writeV3Trace(t, "MP3D", 16, 20_000)
	render := func(cache *trace.SegmentCache) []byte {
		t.Helper()
		app, err := NewSourceApp(path, func() (trace.Source, error) {
			return trace.OpenFileParallelCache(path, 2, nil)
		}, 16)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := renderReport(t, []*App{app}, Options{Cache: cache}, true)
		return out
	}
	cache := trace.NewSegmentCache(64 << 20)
	fast := render(cache)
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("cached render never hit the segment cache: %+v", st)
	}
	noShortcuts = true
	defer func() { noShortcuts = false }()
	if exact := render(nil); !bytes.Equal(fast, exact) {
		t.Fatalf("cached trace report differs from the uncached one:\n%s\n---\n%s", fast, exact)
	}
}

// TestTraceFileKeptTwin is TestTraceShortcutTwin for an App from
// NewTraceFileApp, whose cached cells read the file's kept face: the
// report over a shared segment cache must equal the uncached report with
// every shortcut off, and the cached App must have a kept face.
func TestTraceFileKeptTwin(t *testing.T) {
	path := writeV3Trace(t, "MP3D", 16, 20_000)
	render := func(cache *trace.SegmentCache) []byte {
		t.Helper()
		app, err := NewTraceFileApp(path, 2, cache, 16)
		if err != nil {
			t.Fatal(err)
		}
		if (app.openKept != nil) != (cache != nil) {
			t.Fatalf("kept face %v with cache %v", app.openKept != nil, cache != nil)
		}
		out, _ := renderReport(t, []*App{app}, Options{Cache: cache}, true)
		return out
	}
	cache := trace.NewSegmentCache(64 << 20)
	fast := render(cache)
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("cached render never hit the segment cache: %+v", st)
	}
	noShortcuts = true
	defer func() { noShortcuts = false }()
	if exact := render(nil); !bytes.Equal(fast, exact) {
		t.Fatalf("report over the kept face differs from the exact one:\n%s\n---\n%s", fast, exact)
	}
}

// TestRunTraceFileKeptTwin is the single-run twin of TestTraceFileKeptTwin:
// Run over a v3 trace file with a segment cache must marshal the same
// RunResult as Run without one, for every directory policy and bus
// protocol at 8- to 512-byte blocks, an infinite and a 16 KiB cache,
// unsharded and over 2 shards, and on machines with fewer, as many and
// more nodes than the header names. The cached run must read the kept face
// (RunStats.AccessesFolded > 0) exactly where keptExact holds.
func TestRunTraceFileKeptTwin(t *testing.T) {
	path := writeV3Trace(t, "MP3D", 16, 20_000)
	cache := trace.NewSegmentCache(64 << 20)
	var cfgs []RunConfig
	for _, pol := range core.Policies() {
		cfgs = append(cfgs, RunConfig{Engine: EngineDirectory, Policy: pol.Name})
	}
	for _, prot := range snoop.Protocols() {
		cfgs = append(cfgs, RunConfig{Engine: EngineBus, Protocol: prot.String()})
	}
	run := func(cfg RunConfig, c *trace.SegmentCache) (string, uint64) {
		t.Helper()
		cfg.TraceFile, cfg.Cache, cfg.Stats = path, c, &telemetry.RunStats{}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			return "error: " + err.Error(), cfg.Stats.AccessesFolded.Load()
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob), cfg.Stats.AccessesFolded.Load()
	}
	for _, base := range cfgs {
		for _, block := range []int{8, 16, 64, 256, 512} {
			for _, cacheBytes := range []int{0, 16 << 10} {
				for _, shards := range []int{1, 2} {
					for _, nodes := range []int{8, 16, 32} {
						cfg := base
						cfg.BlockSize, cfg.CacheBytes, cfg.Shards, cfg.Nodes = block, cacheBytes, shards, nodes
						name := fmt.Sprintf("%s%s/block %d/cache %d/shards %d/nodes %d", cfg.Policy, cfg.Protocol, block, cacheBytes, shards, nodes)
						kept, folded := run(cfg, cache)
						exact, _ := run(cfg, nil)
						if kept != exact {
							t.Errorf("%s: over the segment cache\n%s\nwithout it\n%s", name, kept, exact)
						}
						if want := cfg.withDefaults().keptExact(16); (folded > 0) != want {
							t.Errorf("%s: %d accesses folded, want the kept face %v", name, folded, want)
						}
					}
				}
			}
		}
	}
}
