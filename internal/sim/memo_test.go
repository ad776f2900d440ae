package sim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"migratory/internal/memory"
	"migratory/internal/telemetry"
)

// TestMemoTwin renders the Table 2, Table 3, accuracy and machine-size
// sections the way cmd/paper does, over one set of prepared apps, and
// again with sharing off (noMemo), and requires the same bytes. With
// sharing on, the accuracy cells and the 16-node machine-size cells must
// all be answered from Table 3's remembered cells, so the remembered
// verdicts and the memo keys are what the comparison checks.
func TestMemoTwin(t *testing.T) {
	opts := Options{Length: 20000}
	names := []string{"MP3D", "Water"}
	render := func() ([]byte, uint64) {
		t.Helper()
		apps, err := PrepareApps(opts)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		sw2, err := Table2Apps(apps, opts)
		if err != nil {
			t.Fatal(err)
		}
		sw3, err := Table3Apps(apps, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := &telemetry.RunStats{}
		o := opts
		o.Stats = st
		acc, err := ClassifierAccuracyApps(apps, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		sweeps, err := NodeCountSweepApps(names, []int{8, 16}, o, apps)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []func() error{
			func() error { return sw2.Render().Render(&b) },
			func() error { return sw3.Render().Render(&b) },
			func() error { return RenderAccuracy(acc).Render(&b) },
			func() error { return RenderNodeCount(sweeps[0]).Render(&b) },
			func() error { return RenderNodeCount(sweeps[1]).Render(&b) },
		} {
			if err := r(); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes(), st.CellsReused.Load()
	}
	shared, reused := render()
	// Five apps' accuracy cells for the three adaptive policies, and the
	// two apps' four 16-node cells.
	if want := uint64(5*3 + 2*4); reused != want {
		t.Errorf("accuracy and machine-size sweeps reused %d cells, want %d", reused, want)
	}
	noMemo = true
	defer func() { noMemo = false }()
	plain, reused := render()
	if reused != 0 {
		t.Errorf("with sharing off, %d cells were reused", reused)
	}
	if !bytes.Equal(shared, plain) {
		t.Fatalf("report with shared cells differs from the one without:\n%s\n---\n%s", shared, plain)
	}
}

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

// TestRememberedVerdicts checks that a remembered directory result answers
// EverMigratory exactly as its live engine did, for every policy and for
// sharded runs.
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
			if kept.dir != nil {
				t.Fatal("a remembered result keeps its live engine")
			}
			want, got := res.EverMigratory(), kept.EverMigratory()
			if !reflect.DeepEqual(got, want) || got == nil {
				t.Errorf("%s, %d shards: remembered verdicts (%d blocks) differ from the engine's (%d blocks)",
					pol.Name, shards, len(got), len(want))
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
