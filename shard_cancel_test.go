package migratory

// Cancellation tests for set-sharded execution: cancelling the context
// mid-batch must surface ctx.Err() promptly from the sharded run loops and
// must not leak demux producer/consumer goroutines — the demux stage owns
// one goroutine per shard plus pooled batch buffers, all of which have to
// be torn down on the abort path, not just on clean EOF.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"migratory/internal/trace"
)

// cancelAfterSource cancels a context after limit accesses have been
// pulled, then keeps delivering, so cancellation deterministically lands
// mid-stream no matter how fast the machine is. It deliberately implements
// only per-access Next (no NextBatch), which FillBatch handles.
type cancelAfterSource struct {
	inner  TraceSource
	n      int
	limit  int
	cancel context.CancelFunc
}

func (c *cancelAfterSource) Next() (Access, error) {
	if c.n == c.limit {
		c.cancel()
	}
	c.n++
	return c.inner.Next()
}

func (c *cancelAfterSource) Reset() error { c.n = 0; return c.inner.Reset() }
func (c *cancelAfterSource) Close() error { return c.inner.Close() }

// cancelTrace is a workload long enough that the run is still in flight
// when the cancel lands a few batches in.
func cancelTrace(t *testing.T) []Access {
	t.Helper()
	accs, err := GenerateWorkload("MP3D", 16, 1993, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

// demuxGoroutines counts live goroutines currently inside the trace
// package's demux machinery.
func demuxGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "internal/trace.DemuxParallel")
}

// waitNoDemuxGoroutines polls until every demux goroutine has exited; a
// leak fails the test with the count still live.
func waitNoDemuxGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := demuxGoroutines(); n == 0 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d demux goroutine(s) still live 5s after the run returned", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// runCancelled drives run with a context that cancels mid-stream and
// checks the three properties: the error is ctx.Err(), it surfaces
// promptly (not after draining the whole trace), and no demux goroutine
// outlives the call.
func runCancelled(t *testing.T, accs []Access, run func(ctx context.Context, src TraceSource) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterSource{
		inner:  NewSliceTraceSource(accs),
		limit:  3 * DefaultTraceBatchSize, // a few batches in: mid-run, deterministic
		cancel: cancel,
	}
	done := make(chan error, 1)
	go func() { done <- run(ctx, src) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return within 10s")
	}
	if src.n >= len(accs) {
		t.Fatalf("source fully drained (%d accesses) despite mid-stream cancellation", src.n)
	}
	waitNoDemuxGoroutines(t)
}

func TestShardedDirectoryCancellation(t *testing.T) {
	accs := cancelTrace(t)
	for _, shards := range []int{2, 4} {
		sys, err := NewShardedDirectorySystem(DirectoryConfig{
			Nodes:     16,
			Geometry:  MustGeometry(16, 4096),
			Policy:    Basic,
			Placement: RoundRobinPlacement(16),
		}, shards, nil)
		if err != nil {
			t.Fatalf("x%d: %v", shards, err)
		}
		runCancelled(t, accs, sys.RunSource)
	}
}

func TestShardedBusCancellation(t *testing.T) {
	accs := cancelTrace(t)
	sys, err := NewShardedBusSystem(BusConfig{
		Nodes:    16,
		Geometry: MustGeometry(16, 4096),
		Protocol: BusAdaptive,
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	runCancelled(t, accs, sys.RunSource)
}

func TestShardedSweepCancellation(t *testing.T) {
	// A whole sweep with Shards >= 2: cancel while cells are in flight and
	// require the driver to return ctx.Err() without leaking the cells'
	// demux pipelines.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ExperimentOptions{
		Context: ctx,
		Apps:    []string{"MP3D"},
		Length:  200_000,
		Shards:  2,
	}
	time.AfterFunc(10*time.Millisecond, cancel)
	_, err := Table2(opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	waitNoDemuxGoroutines(t)
}

// TestShardedDirectoryCorruptSegment: an 8-shard run over a v3 image whose
// middle segment fails its CRC returns the typed ErrTraceCorrupt, and once
// the source is closed every goroutine the run started is gone — the demux
// producer's shard consumers and the source's segment decoders alike.
func TestShardedDirectoryCorruptSegment(t *testing.T) {
	accs := cancelTrace(t)
	var buf bytes.Buffer
	w := trace.NewWriterOptions(&buf, TraceHeader{BlockSize: 16, PageSize: 4096, Nodes: 16},
		trace.WriterOptions{Version: 3, SegmentBytes: 16 << 10})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	idx, err := trace.ReadIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) < 3 {
		t.Fatalf("image has %d segments, want a middle one", len(idx.Segments))
	}
	seg := idx.Segments[len(idx.Segments)/2]
	img[seg.Off+seg.Len/2] ^= 0x40

	before := runtime.NumGoroutine()
	src, err := NewIndexedTraceSource(bytes.NewReader(img), int64(len(img)), 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewShardedDirectorySystem(DirectoryConfig{
		Nodes:      16,
		Geometry:   MustGeometry(16, 4096),
		CacheBytes: 64 << 10,
		Policy:     Basic,
		Placement:  RoundRobinPlacement(16),
	}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunSource(nil, src); !errors.Is(err, ErrTraceCorrupt) {
		t.Fatalf("run over a corrupt segment returned %v, want ErrTraceCorrupt", err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live 5s after the run, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
