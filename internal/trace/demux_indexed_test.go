package trace

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"migratory/internal/telemetry"
)

// indexedDemuxSource builds a v3 image of n accesses (small segments, so there
// is real parallel structure) and returns a fresh IndexedFileSource.
func indexedDemuxSource(t *testing.T, n, decoders int) (*IndexedFileSource, []Access) {
	t.Helper()
	accs := indexTestAccesses(n)
	data := encodeMTR3(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 8}, accs, 2048)
	src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), decoders)
	if err != nil {
		t.Fatal(err)
	}
	return src, accs
}

// shardCollector gathers per-shard accesses and steps from a demux run. Each shard's consume callback runs on that shard's consumer
// goroutine only, so plain slices suffice.
type shardCollector struct {
	accs  [][]Access
	steps [][]uint64
}

func newShardCollector(shards int) *shardCollector {
	return &shardCollector{accs: make([][]Access, shards), steps: make([][]uint64, shards)}
}

func (c *shardCollector) consume(shard int, b ShardBatch) error {
	c.accs[shard] = append(c.accs[shard], b.Accs...)
	c.steps[shard] = append(c.steps[shard], b.Steps...)
	return nil
}

// TestDemuxParallelIndexedMatchesSlice: an indexed source, decoded on its
// own segment workers, reaches every shard as exactly the stream the same
// accesses produce from a slice — accesses, order and global steps.
func TestDemuxParallelIndexedMatchesSlice(t *testing.T) {
	const shards = 4
	for _, withSteps := range []bool{true, false} {
		src, accs := indexedDemuxSource(t, 30_000, 4)
		route := func(a Access) int { return int(a.Addr/16) % shards }

		want := newShardCollector(shards)
		if err := DemuxParallel(nil, NewSliceSource(accs), 0, shards, withSteps, nil, route, want.consume); err != nil {
			t.Fatal(err)
		}

		var stats telemetry.RunStats
		got := newShardCollector(shards)
		if err := DemuxParallel(nil, src, 0, shards, withSteps, &stats, route, got.consume); err != nil {
			t.Fatal(err)
		}
		src.Close()

		for s := 0; s < shards; s++ {
			if len(got.accs[s]) != len(want.accs[s]) {
				t.Fatalf("steps=%v shard %d: %d accesses, want %d", withSteps, s, len(got.accs[s]), len(want.accs[s]))
			}
			for i := range got.accs[s] {
				if got.accs[s][i] != want.accs[s][i] {
					t.Fatalf("steps=%v shard %d access %d: %+v != %+v", withSteps, s, i, got.accs[s][i], want.accs[s][i])
				}
			}
			if withSteps {
				for i := range got.steps[s] {
					if got.steps[s][i] != want.steps[s][i] {
						t.Fatalf("shard %d step %d: %d != %d", s, i, got.steps[s][i], want.steps[s][i])
					}
				}
			} else if len(got.steps[s]) != 0 {
				t.Fatalf("shard %d carries %d steps without a probe", s, len(got.steps[s]))
			}
		}
		if stats.DemuxBatches.Load() == 0 {
			t.Fatal("no batches accounted")
		}
		for i := range stats.QueueDepth {
			if d := stats.QueueDepth[i].Load(); d != 0 {
				t.Fatalf("slot %d depth %d after completion, want 0", i, d)
			}
		}
	}
}

// TestDemuxParallelSourceShapes: every source shape goes through the one
// producer and delivers everything — unindexed, indexed at decode width 1,
// a single shard, and an indexed source already mid-stream (the demux
// continues from the consumer's position, never rewinds it).
func TestDemuxParallelSourceShapes(t *testing.T) {
	const shards = 2

	check := func(name string, src Source, shards int, wantTotal int) {
		t.Helper()
		var got atomic.Int64
		err := DemuxParallel(nil, src, 0, shards, false, nil,
			func(a Access) int { return int(a.Addr/16) % shards },
			func(_ int, b ShardBatch) error { got.Add(int64(len(b.Accs))); return nil })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Load() != int64(wantTotal) {
			t.Fatalf("%s: delivered %d accesses, want %d", name, got.Load(), wantTotal)
		}
	}

	accs := indexTestAccesses(10_000)
	check("unindexed source", NewSliceSource(accs), shards, len(accs))

	src, _ := indexedDemuxSource(t, 10_000, 1)
	check("decoders=1", src, shards, len(accs))
	src.Close()

	src, _ = indexedDemuxSource(t, 10_000, 4)
	check("single shard", src, 1, len(accs))
	src.Close()

	src, _ = indexedDemuxSource(t, 10_000, 4)
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	check("started source", src, shards, len(accs)-1)
	src.Close()
}

func TestDemuxParallelConsumeError(t *testing.T) {
	src, _ := indexedDemuxSource(t, 30_000, 4)
	defer src.Close()
	boom := errors.New("boom")
	err := DemuxParallel(nil, src, 0, 4, false, nil,
		func(a Access) int { return int(a.Addr/16) % 4 },
		func(shard int, b ShardBatch) error {
			if shard == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the consume error", err)
	}
}

func TestDemuxParallelDecodeError(t *testing.T) {
	accs := indexTestAccesses(30_000)
	data := encodeMTR3(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 8}, accs, 2048)
	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	seg := idx.Segments[3]
	data[seg.Off+seg.Len/2] ^= 0x40 // segment CRC will fail at decode

	src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	var stats telemetry.RunStats
	var mu sync.Mutex
	maxStep := uint64(0)
	err = DemuxParallel(nil, src, 0, 4, true, &stats,
		func(a Access) int { return int(a.Addr/16) % 4 },
		func(shard int, b ShardBatch) error {
			mu.Lock()
			for _, s := range b.Steps {
				if s >= maxStep {
					maxStep = s + 1
				}
			}
			mu.Unlock()
			return nil
		})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	// Nothing at or past the corrupt segment may have been delivered.
	if maxStep > seg.StartIndex {
		t.Fatalf("delivered step %d from the corrupt segment (starts at %d)", maxStep-1, seg.StartIndex)
	}
	for i := range stats.QueueDepth {
		if d := stats.QueueDepth[i].Load(); d != 0 {
			t.Fatalf("slot %d depth %d after error teardown, want 0", i, d)
		}
	}
}

func TestDemuxParallelCancel(t *testing.T) {
	src, _ := indexedDemuxSource(t, 50_000, 4)
	defer src.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64 // shared by the four shard consumers
	err := DemuxParallel(ctx, src, 0, 4, false, nil,
		func(a Access) int { return int(a.Addr/16) % 4 },
		func(shard int, b ShardBatch) error {
			if n.Add(int64(len(b.Accs))) > 5000 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	cancel()
}

// TestQueueDepthMultiProducer is the -race pin for the QueueDepth
// contract: with four demux pipelines (two over slices, two over indexed
// sources decoding on their own workers) sharing one RunStats, as the
// cells of a sweep do, the gauge observed at every consumption is
// non-negative, and it returns exactly to zero when all producers finish —
// increments happen pre-hand-off and decrements exactly once, so no
// interleaving double-counts or dips below zero.
func TestQueueDepthMultiProducer(t *testing.T) {
	const shards = 4
	var stats telemetry.RunStats
	route := func(a Access) int { return int(a.Addr/16) % shards }

	var wg sync.WaitGroup
	errs := make([]error, 4)
	var dips sync.Map
	consume := func(shard int, b ShardBatch) error {
		// The consumer's own decrement has already happened; any negative
		// reading means some producer published before incrementing.
		if d := stats.QueueDepth[shard%telemetry.MaxQueueShards].Load(); d < 0 {
			dips.Store(shard, d)
		}
		return nil
	}
	accs := indexTestAccesses(20_000)
	data := encodeMTR3(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 8}, accs, 2048)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if p < 2 {
				errs[p] = DemuxParallel(nil, NewSliceSource(accs), 0, shards, p == 0, &stats, route, consume)
				return
			}
			src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), 2)
			if err != nil {
				errs[p] = err
				return
			}
			defer src.Close()
			errs[p] = DemuxParallel(nil, src, 0, shards, p == 2, &stats, route, consume)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", p, err)
		}
	}
	dips.Range(func(k, v any) bool {
		t.Errorf("shard %v saw negative queue depth %v", k, v)
		return true
	})
	for i := range stats.QueueDepth {
		if d := stats.QueueDepth[i].Load(); d != 0 {
			t.Fatalf("slot %d depth %d after all producers finished, want 0", i, d)
		}
	}
	if stats.DemuxBatches.Load() == 0 {
		t.Fatal("no batches accounted")
	}
}
