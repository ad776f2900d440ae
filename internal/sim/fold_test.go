package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"migratory/internal/core"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/snoop"
	"migratory/internal/telemetry"
	"migratory/internal/timing"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// foldedApp prepares a short MP3D app and checks that it is folded.
func foldedApp(t *testing.T, opts Options) *App {
	t.Helper()
	app, err := PrepareApp("MP3D", opts)
	if err != nil {
		t.Fatal(err)
	}
	if app.openKept == nil {
		t.Fatal("prepared app is not folded")
	}
	return app
}

// keptOf returns a folded generator app's kept accesses.
func keptOf(t *testing.T, app *App) []trace.Access {
	t.Helper()
	src, err := app.openKept()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	kept, err := trace.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return kept
}

// TestFoldedAppOpenIsExact checks that a prepared App's Open replays the
// generated trace record for record, and that its kept accesses with
// their folds cover every access.
func TestFoldedAppOpenIsExact(t *testing.T) {
	opts := Options{Length: 30000}.withDefaults()
	app := foldedApp(t, opts)
	prof, _ := workload.ProfileByName("MP3D")
	want, err := workload.Generate(prof, opts.Nodes, opts.Seed, opts.Length)
	if err != nil {
		t.Fatal(err)
	}
	src, err := app.Open()
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("App.Open differs from the generated trace")
	}
	kept := keptOf(t, app)
	covered := len(kept)
	for _, k := range kept {
		covered += int(k.FoldedReads() + k.FoldedWrites())
	}
	if covered != len(want) || len(kept) >= len(want) {
		t.Fatalf("%d kept accesses cover %d of %d", len(kept), covered, len(want))
	}
}

// TestBindChoosesForm pins which cells replay the kept accesses: unprobed
// directory and bus cells with blocks of 16 to 256 bytes, but for
// UpdateOnce bus cells. Probed, UpdateOnce, timing and 512-byte cells
// read the exact trace, and only directory cells take the App's
// placement. A 512-byte cell's result matches a run over the generated
// slice.
func TestBindChoosesForm(t *testing.T) {
	opts := Options{Length: 20000}.withDefaults()
	app := foldedApp(t, opts)
	kept := keptOf(t, app)
	isKept := func(cfg RunConfig) bool {
		t.Helper()
		src, err := app.bind(cfg).OpenSource()
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		accs, err := trace.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		return reflect.DeepEqual(accs, kept)
	}
	for _, block := range []int{0, 16, 64, 256} {
		if !isKept(RunConfig{Engine: EngineDirectory, BlockSize: block}) {
			t.Fatalf("%d-byte blocks: unprobed directory cell does not read the kept accesses", block)
		}
	}
	if !isKept(RunConfig{Engine: EngineBus, Protocol: snoop.MESI.String()}) {
		t.Fatal("an unprobed MESI bus cell does not read the kept accesses")
	}
	for name, cfg := range map[string]RunConfig{
		"512-byte":    {Engine: EngineDirectory, BlockSize: 512},
		"probed":      {Engine: EngineDirectory, Probes: func(int) obs.Probe { return nil }},
		"update-once": {Engine: EngineBus, Protocol: snoop.UpdateOnce.String()},
		"timing":      {Engine: EngineTiming},
	} {
		if isKept(cfg) {
			t.Errorf("a %s cell reads the kept accesses", name)
		}
	}
	if app.bind(RunConfig{Engine: EngineDirectory}).PlacementPolicy == nil {
		t.Error("a directory cell does not take the App's placement")
	}
	if app.bind(RunConfig{Engine: EngineBus}).PlacementPolicy != nil {
		t.Error("a bus cell takes a placement")
	}

	prof, _ := workload.ProfileByName("MP3D")
	accs, err := workload.Generate(prof, opts.Nodes, opts.Seed, opts.Length)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewApp("MP3D", accs, opts.Nodes)
	for _, pol := range []core.Policy{core.Conventional, core.Basic} {
		got, err := RunDirectoryCell(app, opts, pol, 0, 512)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunDirectoryCell(plain, opts, pol, 0, 512)
		if err != nil {
			t.Fatal(err)
		}
		if got.Msgs != want.Msgs || got.Counters != want.Counters {
			t.Fatalf("%s 512-byte cell: %+v, want %+v", pol.Name, got.Counters, want.Counters)
		}
	}
}

// TestBindTraceFileFaces pins which cells of an App over a cached trace
// file read its kept face: those TestBindChoosesForm gives the kept
// accesses, on a machine with at least the header's node count. A cell
// over fewer nodes, an uncached file and a header without a node count
// read the exact stream.
func TestBindTraceFileFaces(t *testing.T) {
	path := writeV3Trace(t, "MP3D", 16, 20_000)
	cache := trace.NewSegmentCache(64 << 20)
	app, err := NewTraceFileApp(path, 2, cache, 16)
	if err != nil {
		t.Fatal(err)
	}
	count := func(app *App, cfg RunConfig) int {
		t.Helper()
		src, err := app.bind(cfg).OpenSource()
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		accs, err := trace.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		return len(accs)
	}
	for _, cfg := range []RunConfig{
		{Engine: EngineDirectory},
		{Engine: EngineDirectory, Nodes: 32, BlockSize: 256},
		{Engine: EngineBus, Protocol: snoop.MESI.String()},
	} {
		if n := count(app, cfg); n >= 20_000 {
			t.Errorf("%+v reads %d accesses, not the kept face", cfg, n)
		}
	}
	for name, cfg := range map[string]RunConfig{
		"8-node":      {Engine: EngineDirectory, Nodes: 8},
		"512-byte":    {Engine: EngineDirectory, BlockSize: 512},
		"probed":      {Engine: EngineDirectory, Probes: func(int) obs.Probe { return nil }},
		"update-once": {Engine: EngineBus, Protocol: snoop.UpdateOnce.String()},
		"timing":      {Engine: EngineTiming},
	} {
		if n := count(app, cfg); n != 20_000 {
			t.Errorf("a %s cell reads %d accesses, not the exact stream", name, n)
		}
	}
	uncached, err := NewTraceFileApp(path, 2, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if uncached.openKept != nil {
		t.Error("an uncached trace file has a kept face")
	}
	accs, err := trace.ReadAll(mustOpen(t, app))
	if err != nil {
		t.Fatal(err)
	}
	anon := filepath.Join(t.TempDir(), "anon.mtr")
	f, err := os.Create(anon)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f, trace.Header{BlockSize: 16, PageSize: PageSize})
	if _, err := trace.Copy(w, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(w.Close(), f.Close()); err != nil {
		t.Fatal(err)
	}
	if app, err := NewTraceFileApp(anon, 2, cache, 16); err != nil || app.openKept != nil {
		t.Errorf("a header without a node count: kept face %v, err %v", app != nil && app.openKept != nil, err)
	}
}

// mustOpen opens app's exact trace.
func mustOpen(t *testing.T, app *App) trace.Source {
	t.Helper()
	src, err := app.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// TestRefusedTraceFails checks that preparing a folded App over a trace
// naming a node at or beyond the App's node count fails with the folder's
// refusal, worded like the engines' own out-of-range error.
func TestRefusedTraceFails(t *testing.T) {
	accs := []trace.Access{{Node: 0, Kind: trace.Read, Addr: 0}, {Node: 5, Kind: trace.Write, Addr: 16}}
	app, err := NewFoldedApp("bad", trace.NewSliceSource(accs), 4, len(accs))
	if app != nil || !errors.Is(err, trace.ErrUnfoldable) || !strings.Contains(err.Error(), "node 5 out of range (4 nodes)") {
		t.Fatalf("NewFoldedApp = %v, %v; want the folder's out-of-range refusal", app, err)
	}
}

// TestEnginesRefuseFoldedAccess checks that the single-access entry points
// of the three engines reject an access carrying folded repeats with
// trace.ErrFolded rather than drop the repeats.
func TestEnginesRefuseFoldedAccess(t *testing.T) {
	folded := trace.Access{Node: 1, Kind: trace.Read, Addr: 32, Fold: 2}
	geom := memory.MustGeometry(16, PageSize)
	cfg := RunConfig{Engine: EngineDirectory, Nodes: 4, Policy: "basic", Placement: PlacementRoundRobin}.withDefaults()
	pol, _ := cfg.resolvePolicy()
	pl, _ := cfg.placementFor()
	dir, err := directory.New(cfg.directoryConfig(geom, pol, pl))
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Access(folded); !errors.Is(err, trace.ErrFolded) {
		t.Fatalf("directory Access = %v, want ErrFolded", err)
	}
	bus, err := snoop.New(snoop.Config{Nodes: 4, Geometry: geom})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Access(folded); !errors.Is(err, trace.ErrFolded) {
		t.Fatalf("snoop Access = %v, want ErrFolded", err)
	}
	tc := RunConfig{Engine: EngineTiming, Nodes: 4, Policy: "basic"}.withDefaults()
	_, err = timing.RunSource(context.Background(), trace.NewSliceSource([]trace.Access{folded}), tc.timingConfig(geom, pol))
	if !errors.Is(err, trace.ErrFolded) {
		t.Fatalf("timing RunSource = %v, want ErrFolded", err)
	}
	// A probed run of the kept accesses is refused too.
	app := foldedApp(t, Options{Length: 5000}.withDefaults())
	_, err = Run(context.Background(), RunConfig{
		Engine: EngineBus, Protocol: "mesi", Nodes: 16,
		OpenSource: app.openKept,
		Probes:     func(int) obs.Probe { return obs.FuncProbe(func(obs.Event) {}) },
	})
	if !errors.Is(err, trace.ErrFolded) {
		t.Fatalf("probed bus run of kept accesses = %v, want ErrFolded", err)
	}
}

// TestFoldedTelemetry checks the accounting of a folded sweep: Accesses
// covers every access, AccessesFolded the credited repeats, and the
// average batch fill counts delivered records only.
func TestFoldedTelemetry(t *testing.T) {
	var st telemetry.RunStats
	opts := Options{Length: 20000, Apps: []string{"MP3D"}, Stats: &st, Policies: []core.Policy{core.Basic}}
	app := foldedApp(t, opts)
	if _, err := Table3Apps([]*App{app}, opts); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Accesses.Load(), uint64(len(Table3BlockSizes)*20000); got != want {
		t.Fatalf("Accesses %d, want %d", got, want)
	}
	folded := st.AccessesFolded.Load()
	if folded == 0 || folded >= st.Accesses.Load() {
		t.Fatalf("AccessesFolded %d of %d", folded, st.Accesses.Load())
	}
	s := telemetry.NewSampler(&st, 0).Snapshot()
	if want := float64(s.Accesses-s.AccessesReused-s.AccessesFolded) / float64(s.Batches); s.AvgBatchFill != want {
		t.Fatalf("AvgBatchFill %v, want %v", s.AvgBatchFill, want)
	}
}
