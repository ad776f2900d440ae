package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"migratory/internal/core"
	"migratory/internal/snoop"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// sameSweep asserts two directory sweeps produced bit-identical counters
// cell by cell.
func sameSweep(t *testing.T, a, b *Sweep) {
	t.Helper()
	if len(a.GroupValues) != len(b.GroupValues) {
		t.Fatalf("group counts differ: %v vs %v", a.GroupValues, b.GroupValues)
	}
	for _, gv := range a.GroupValues {
		ra, rb := a.Rows[gv], b.Rows[gv]
		if len(ra) != len(rb) {
			t.Fatalf("group %d: %d vs %d rows", gv, len(ra), len(rb))
		}
		for i := range ra {
			for j := range ra[i].Cells {
				ca, cb := ra[i].Cells[j], rb[i].Cells[j]
				if ca.Msgs != cb.Msgs || ca.Counters != cb.Counters {
					t.Fatalf("group %d row %s cell %s: %+v vs %+v",
						gv, ra[i].App, ca.Policy.Name, ca.Msgs, cb.Msgs)
				}
			}
		}
	}
}

// TestStreamedTable2Equivalence: Options.Stream regenerates the trace
// lazily per cell and must land on exactly the counters of the
// materialized path.
func TestStreamedTable2Equivalence(t *testing.T) {
	opts := testOpts("MP3D")
	opts.Length = 20_000
	materialized, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Stream = true
	streamed, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSweep(t, materialized, streamed)
}

func TestStreamedTable3Equivalence(t *testing.T) {
	opts := testOpts("Water")
	opts.Length = 20_000
	materialized, err := Table3(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Stream = true
	streamed, err := Table3(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSweep(t, materialized, streamed)
}

func TestStreamedBusEquivalence(t *testing.T) {
	opts := testOpts("MP3D")
	opts.Length = 20_000
	caches := []int{64 << 10}
	prots := []snoop.Protocol{snoop.MESI, snoop.Adaptive}
	materialized, err := RunBus(opts, caches, prots)
	if err != nil {
		t.Fatal(err)
	}
	opts.Stream = true
	streamed, err := RunBus(opts, caches, prots)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := materialized.Rows[64<<10], streamed.Rows[64<<10]
	for i := range ra {
		for j := range ra[i].Cells {
			if ra[i].Cells[j].Counts != rb[i].Cells[j].Counts {
				t.Fatalf("cell %d/%d: %+v vs %+v", i, j, ra[i].Cells[j].Counts, rb[i].Cells[j].Counts)
			}
		}
	}
}

// TestFileSourceSweepEquivalence drives Table2 from a v3 .mtr file on
// disk, read through the indexed reader, and from the same trace in
// memory: identical counters, so the recorded format is a faithful
// transport.
func TestFileSourceSweepEquivalence(t *testing.T) {
	opts := testOpts("Water")
	opts.Length = 20_000
	prof, err := workload.ProfileByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Generate(prof, opts.Nodes, opts.Seed, opts.Length)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "water.mtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f, trace.Header{BlockSize: 16, PageSize: PageSize, Nodes: opts.Nodes})
	if _, err := trace.Copy(w, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fileApp, err := NewSourceApp("Water", func() (trace.Source, error) {
		src, err := trace.OpenFileParallelCache(path, 2, nil)
		if err != nil {
			return nil, err
		}
		return src, nil
	}, opts.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	sliceApp := NewApp("Water", accs, opts.Nodes)

	fromFile, err := Table2Apps([]*App{fileApp}, opts)
	if err != nil {
		t.Fatal(err)
	}
	fromSlice, err := Table2Apps([]*App{sliceApp}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSweep(t, fromSlice, fromFile)
}

// TestSweepCancellation: a cancelled context aborts every sweep driver
// with the context's own error.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := testOpts("MP3D", "Water")
	opts.Context = ctx

	if _, err := Table2(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("Table2 under cancelled ctx = %v", err)
	}
	if _, err := RunBus(opts, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBus under cancelled ctx = %v", err)
	}
	if _, err := ExecutionTime(opts, core.Basic, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecutionTime under cancelled ctx = %v", err)
	}
	if _, err := ClassifierAccuracy("MP3D", opts, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ClassifierAccuracy under cancelled ctx = %v", err)
	}
	if _, err := NodeCountSweep("MP3D", []int{4, 8}, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("NodeCountSweep under cancelled ctx = %v", err)
	}
}

// TestMidRunCancellation cancels while cells are in flight; the sweep must
// stop promptly and return ctx.Err() itself, not a wrapped cell error.
func TestMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := testOpts("MP3D")
	opts.Length = 200_000
	opts.Context = ctx
	opts.Parallelism = 2

	done := make(chan error, 1)
	go func() {
		_, err := Table2(opts)
		done <- err
	}()
	cancel()
	err := <-done
	if err == nil {
		// The sweep may legitimately have finished before cancel landed on
		// a fast machine; only a wrong error kind is a failure.
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel = %v, want context.Canceled", err)
	}
	if err.Error() != context.Canceled.Error() {
		t.Fatalf("cancellation wrapped: %q", err)
	}
}
