package sim

import (
	"context"
	"testing"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

// TestSweepProgress checks that every sweep driver reports its cells to
// Options.Stats (CellsDone == CellsTotal == the driver's cell count), and
// that the drivers whose cells count toward the run (Table 2, Table 3, the
// bus and timing sweeps) push Accesses while those that do not (accuracy,
// node count) leave it alone: run manifests read it as the sweep's access
// count.
func TestSweepProgress(t *testing.T) {
	opts := testOpts("Water")
	opts.Length = 5_000
	apps, err := PrepareApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		cells    uint64
		accesses bool // whether the cells push their accesses
		run      func(Options) error
	}{
		{"Table2Apps", 5 * 4, true, func(o Options) error { _, err := Table2Apps(apps, o); return err }},
		{"Table3Apps", 5 * 4, true, func(o Options) error { _, err := Table3Apps(apps, o); return err }},
		{"RunBusApps", 2 * 3, true, func(o Options) error { _, err := RunBusApps(apps, o, nil, nil); return err }},
		{"ExecutionTimeApps", 2, true, func(o Options) error {
			_, err := ExecutionTimeApps(apps, o, core.Basic, 0)
			return err
		}},
		{"ClassifierAccuracyApp", 3, false, func(o Options) error {
			_, err := ClassifierAccuracyApp(apps[0], o, 0)
			return err
		}},
		{"NodeCountSweep", 2 * 4, false, func(o Options) error {
			_, err := NodeCountSweep("Water", []int{4, 8}, o)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats := &telemetry.RunStats{}
			o := opts
			o.Stats = stats
			if err := tc.run(o); err != nil {
				t.Fatal(err)
			}
			done, total := stats.CellsDone.Load(), stats.CellsTotal.Load()
			if done != tc.cells || total != tc.cells {
				t.Errorf("cells done/total = %d/%d, want %d/%d", done, total, tc.cells, tc.cells)
			}
			if got := stats.Accesses.Load(); (got > 0) != tc.accesses {
				t.Errorf("accesses = %d, want pushed = %v", got, tc.accesses)
			}
		})
	}
}

// TestNodeCountSweepValues pins NodeCountSweep's numbers against the
// directory engine driven directly, one (nodes, policy) cell at a time over
// the same prepared trace and placement, at every shard width.
func TestNodeCountSweepValues(t *testing.T) {
	nodeCounts := []int{4, 16}
	opts := testOpts("MP3D")
	opts.Length = 20_000

	want := make([]NodeCountRow, len(nodeCounts))
	for ni, n := range nodeCounts {
		perNode := opts
		perNode.Nodes = n
		app, err := PrepareApp("MP3D", perNode)
		if err != nil {
			t.Fatal(err)
		}
		var msgs []cost.Msgs
		for _, pol := range core.Policies() {
			sys, err := directory.New(directory.Config{
				Nodes: n, Geometry: memory.MustGeometry(16, PageSize), Policy: pol, Placement: app.Placement,
			})
			if err != nil {
				t.Fatal(err)
			}
			src, err := app.Open()
			if err != nil {
				t.Fatal(err)
			}
			err = sys.RunSource(context.Background(), src)
			src.Close()
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, sys.Messages())
		}
		want[ni] = NodeCountRow{App: "MP3D", Nodes: n, BaseMsgs: msgs[0]}
		for _, m := range msgs[1:] {
			want[ni].Reductions = append(want[ni].Reductions, cost.Reduction(msgs[0], m))
		}
	}

	for _, shards := range []int{1, 2} {
		o := opts
		o.Shards = shards
		rows, err := NodeCountSweep("MP3D", nodeCounts, o)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if row.BaseMsgs != want[i].BaseMsgs {
				t.Errorf("shards=%d nodes=%d: base msgs %+v, want %+v", shards, row.Nodes, row.BaseMsgs, want[i].BaseMsgs)
			}
			for j, red := range row.Reductions {
				if red != want[i].Reductions[j] {
					t.Errorf("shards=%d nodes=%d policy %d: reduction %v, want %v", shards, row.Nodes, j+1, red, want[i].Reductions[j])
				}
			}
		}
	}
}

// TestSweepCacheAttach checks that Options.Cache reaches indexed file
// sources a sweep's apps open without it: the second cell over the same
// trace replays the first cell's decoded segments.
func TestSweepCacheAttach(t *testing.T) {
	path := writeV3Trace(t, "MP3D", 16, 12_000)
	app, err := NewSourceApp("MP3D", func() (trace.Source, error) {
		src, err := trace.OpenFileParallelCache(path, 1, nil)
		if err != nil {
			return nil, err
		}
		return src, nil
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	cache := trace.NewSegmentCache(64 << 20)
	opts := testOpts()
	opts.Cache = cache
	opts.Parallelism = 1
	if _, err := ClassifierAccuracyApp(app, opts, 0); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("cache stats %+v: want both misses (first decode) and hits (replays)", st)
	}
}
