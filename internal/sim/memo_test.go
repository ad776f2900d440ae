package sim

import (
	"reflect"
	"slices"
	"testing"

	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/telemetry"
)

// TestMemoHitsPushNoAccesses checks the credit rule for reused cells:
// after Table3Apps, the accuracy and machine-size sweeps over the same
// apps answer their 16-node, infinite-cache cells from the memo, count
// them in CellsReused, keep CellsDone == CellsTotal, and push no
// accesses, since their own runs carry no Stats and would push none.
func TestMemoHitsPushNoAccesses(t *testing.T) {
	opts := testOpts("MP3D", "Water")
	opts.Length = 5_000
	apps, err := PrepareApps(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table3Apps(apps, opts); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		cells, reused uint64
		run           func(Options) error
	}{
		{"ClassifierAccuracyApps", 2 * 3, 2 * 3, func(o Options) error {
			_, err := ClassifierAccuracyApps(apps, o, 0)
			return err
		}},
		{"NodeCountSweepApps", 2 * 2 * 4, 2 * 4, func(o Options) error {
			_, err := NodeCountSweepApps([]string{"MP3D", "Water"}, []int{8, 16}, o, apps)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &telemetry.RunStats{}
			o := opts
			o.Stats = st
			if err := tc.run(o); err != nil {
				t.Fatal(err)
			}
			done, total := st.CellsDone.Load(), st.CellsTotal.Load()
			if done != tc.cells || total != tc.cells {
				t.Errorf("cells done/total = %d/%d, want %d/%d", done, total, tc.cells, tc.cells)
			}
			if got := st.CellsReused.Load(); got != tc.reused {
				t.Errorf("cells reused = %d, want %d", got, tc.reused)
			}
			if a, r := st.Accesses.Load(), st.AccessesReused.Load(); a != 0 || r != 0 {
				t.Errorf("accesses = %d (reused %d), want none pushed", a, r)
			}
		})
	}
}

// TestRememberedVerdicts checks that a directory result, as Run returns
// it and as its App remembers it, answers EverMigratory and
// InvalidationHistogram exactly as a live engine over the same cell does,
// for every policy and for sharded runs.
func TestRememberedVerdicts(t *testing.T) {
	opts := testOpts("MP3D")
	opts.Length = 20_000
	app, err := PrepareApp("MP3D", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		for _, pol := range opts.withDefaults().Policies {
			o := opts
			o.Shards = shards
			d := newDirCell(app, o.withDefaults(), pol, 0, 32)
			res, err := Run(o.ctx(), d.cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := cellKey{policy: pol, blockSize: 32}
			app.remember(key, res)
			kept := app.recall(key)

			c := d.cfg.withDefaults()
			sys, err := directory.NewSharded(c.directoryConfig(memory.MustGeometry(32, PageSize), pol, app.Placement), c.shards(), nil)
			if err != nil {
				t.Fatal(err)
			}
			src, err := c.openSource()
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RunSource(o.ctx(), src); err != nil {
				t.Fatal(err)
			}
			src.Close()
			want, got := sys.EverMigratory(), kept.EverMigratory()
			if !reflect.DeepEqual(got, want) || got == nil {
				t.Errorf("%s, %d shards: remembered verdicts (%d blocks) differ from the engine's (%d blocks)",
					pol.Name, shards, len(got), len(want))
			}
			if want, got := sys.InvalidationHistogram(), kept.InvalidationHistogram(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d shards: histogram %v, want %v", pol.Name, shards, got, want)
			}
		}
	}
}

// TestBlockSet checks both forms of the verdict set against the blocks
// it was built from: dense sets take the bitmap, sparse ones the list.
func TestBlockSet(t *testing.T) {
	cases := []struct {
		name   string
		blocks []memory.BlockID
		bitmap bool
	}{
		{"empty", nil, false},
		{"dense", []memory.BlockID{130, 64, 65, 127, 191, 70}, true},
		{"one", []memory.BlockID{5}, true},
		{"sparse", []memory.BlockID{1 << 40, 3, 1 << 20}, false},
	}
	for _, tc := range cases {
		s := newBlockSet(append([]memory.BlockID(nil), tc.blocks...))
		if (s.words != nil) != tc.bitmap {
			t.Errorf("%s: bitmap %v, want %v", tc.name, s.words != nil, tc.bitmap)
		}
		var got []memory.BlockID
		s.forEach(func(b memory.BlockID) { got = append(got, b) })
		want := append([]memory.BlockID(nil), tc.blocks...)
		slices.Sort(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: set holds %v, want %v", tc.name, got, want)
		}
	}
}
