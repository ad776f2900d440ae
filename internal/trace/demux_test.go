package trace

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"migratory/internal/memory"
)

// demuxTrace builds a deterministic access stream spread over many blocks.
func demuxTrace(n int) []Access {
	accs := make([]Access, n)
	for i := range accs {
		accs[i] = Access{
			Node: memory.NodeID(i % 16),
			Kind: Kind(i % 2),
			Addr: memory.Addr((i * 7919) % 4096 * 16),
		}
	}
	return accs
}

func TestDemuxPartitionsAndPreservesOrder(t *testing.T) {
	const shards = 4
	accs := demuxTrace(3*DefaultBatchSize + 57)
	route := func(a Access) int { return int(a.Addr/16) % shards }

	got := make([][]Access, shards)
	steps := make([][]uint64, shards)
	err := DemuxParallel(nil, NewSliceSource(accs), 0, shards, true, nil, route,
		func(shard int, b ShardBatch) error {
			got[shard] = append(got[shard], b.Accs...)
			steps[shard] = append(steps[shard], b.Steps...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for s := 0; s < shards; s++ {
		total += len(got[s])
		if len(got[s]) != len(steps[s]) {
			t.Fatalf("shard %d: %d accesses but %d steps", s, len(got[s]), len(steps[s]))
		}
		prev := -1
		for i, a := range got[s] {
			if route(a) != s {
				t.Fatalf("shard %d: access %v routed to shard %d", s, a, route(a))
			}
			st := int(steps[s][i])
			if st <= prev {
				t.Fatalf("shard %d: steps not increasing (%d after %d)", s, st, prev)
			}
			prev = st
			if accs[st] != a {
				t.Fatalf("shard %d: step %d carries %v, trace has %v", s, st, a, accs[st])
			}
		}
	}
	if total != len(accs) {
		t.Fatalf("demux delivered %d of %d accesses", total, len(accs))
	}
}

func TestDemuxWithoutSteps(t *testing.T) {
	const shards = 2
	accs := demuxTrace(2 * DefaultBatchSize)
	route := func(a Access) int { return int(a.Addr/16) % shards }
	want := make([][]Access, shards)
	for _, a := range accs {
		s := route(a)
		want[s] = append(want[s], a)
	}

	got := make([][]Access, shards)
	err := DemuxParallel(nil, NewSliceSource(accs), 0, shards, false, nil, route,
		func(shard int, b ShardBatch) error {
			if b.Steps != nil {
				return errors.New("unexpected step array")
			}
			got[shard] = append(got[shard], b.Accs...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("shard %d: got %d accesses, want %d", s, len(got[s]), len(want[s]))
		}
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("shard %d access %d: got %v, want %v", s, i, got[s][i], want[s][i])
			}
		}
	}
}

func TestDemuxBadShardCount(t *testing.T) {
	err := DemuxParallel(nil, NewSliceSource(nil), 0, 0, false, nil,
		func(Access) int { return 0 },
		func(int, ShardBatch) error { return nil })
	if err == nil {
		t.Fatal("demux accepted 0 shards")
	}
}

func TestDemuxConsumeError(t *testing.T) {
	accs := demuxTrace(4 * DefaultBatchSize)
	boom := errors.New("boom")
	err := DemuxParallel(nil, NewSliceSource(accs), 0, 2, false, nil,
		func(a Access) int { return int(a.Addr/16) % 2 },
		func(shard int, b ShardBatch) error {
			if shard == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

func TestDemuxContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := DemuxParallel(ctx, NewSliceSource(demuxTrace(8*DefaultBatchSize)), 0, 2, false, nil,
		func(a Access) int { return int(a.Addr/16) % 2 },
		func(int, ShardBatch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// failAfter yields n accesses, then a permanent non-EOF error.
type failAfter struct {
	n    int
	read int
	err  error
}

func (f *failAfter) Next() (Access, error) {
	if f.read >= f.n {
		return Access{}, f.err
	}
	f.read++
	return Access{Addr: memory.Addr(f.read * 16)}, nil
}
func (f *failAfter) Reset() error { f.read = 0; return nil }
func (f *failAfter) Close() error { return nil }

func TestDemuxSourceError(t *testing.T) {
	srcErr := fmt.Errorf("decode failed")
	src := &failAfter{n: DefaultBatchSize / 2, err: srcErr}
	var seen atomic.Int64
	err := DemuxParallel(nil, src, 0, 2, false, nil,
		func(a Access) int { return int(a.Addr/16) % 2 },
		func(_ int, b ShardBatch) error { seen.Add(int64(len(b.Accs))); return nil })
	if !errors.Is(err, srcErr) {
		t.Fatalf("got %v, want %v", err, srcErr)
	}
	if seen.Load() != DefaultBatchSize/2 {
		t.Fatalf("consumers saw %d accesses before the error, want %d", seen.Load(), DefaultBatchSize/2)
	}
}

func TestPutBatchClampsOversizedBuffers(t *testing.T) {
	// Caller-grown buffers go back to the pool clamped to the uniform
	// capacity; undersized ones are dropped. Either way every GetBatch
	// hands out exactly DefaultBatchSize capacity.
	PutBatch(make([]Access, 0, 3*DefaultBatchSize))
	PutBatch(make([]Access, 10, DefaultBatchSize/2))
	for i := 0; i < 8; i++ {
		buf := GetBatch()
		if cap(buf) != DefaultBatchSize || len(buf) != DefaultBatchSize {
			t.Fatalf("GetBatch returned len %d cap %d, want %d/%d",
				len(buf), cap(buf), DefaultBatchSize, DefaultBatchSize)
		}
		PutBatch(buf)
	}
}
