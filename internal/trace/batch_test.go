package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"migratory/internal/memory"
)

func batchTestImage(t testing.TB, n int) ([]Access, []byte) {
	t.Helper()
	accs := make([]Access, n)
	addr := memory.Addr(0)
	for i := range accs {
		addr += memory.Addr((i%7)*16 - 32)
		accs[i] = Access{Node: memory.NodeID(i % 16), Kind: Kind(i % 2), Addr: addr}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{BlockSize: 16, PageSize: 4096, Nodes: 16})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return accs, buf.Bytes()
}

// TestSliceSourceNextBatch pins the BatchReader contract on the slice
// source: full batches, a short tail, then (0, io.EOF).
func TestSliceSourceNextBatch(t *testing.T) {
	accs, _ := batchTestImage(t, 10)
	src := NewSliceSource(accs)
	buf := make([]Access, 4)
	sizes := []int{4, 4, 2}
	for _, want := range sizes {
		n, err := src.NextBatch(buf)
		if n != want || err != nil {
			t.Fatalf("NextBatch = (%d, %v), want (%d, nil)", n, err, want)
		}
	}
	if n, err := src.NextBatch(buf); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("drained NextBatch = (%d, %v), want (0, EOF)", n, err)
	}
}

// TestFileSourceResetReusesBuffers: after the first full pass, a Reset
// plus a complete batched drain of the indexed source allocates only the
// decode pipeline's fixed setup — no raw segment buffer, slab, or batch
// per segment, because all of them come back from their pools. This is
// what keeps sweeps that Reset and re-drain the same source for every
// cell free of per-segment garbage. The image has dozens of segments, so
// any per-segment allocation would blow the bound.
func TestFileSourceResetReusesBuffers(t *testing.T) {
	accs := make([]Access, 20_000)
	for i := range accs {
		accs[i] = Access{Node: memory.NodeID(i % 16), Kind: Kind(i % 2), Addr: memory.Addr(i * 48)}
	}
	img := encodeMTR3(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 16}, accs, 1024)
	src, err := NewIndexedSource(bytes.NewReader(img), int64(len(img)), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if segs := len(src.Index().Segments); segs < 32 {
		t.Fatalf("image has %d segments, want dozens", segs)
	}
	buf := GetBatch()
	defer PutBatch(buf)
	drain := func() {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for {
			n, err := src.NextBatch(buf)
			total += n
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if total != len(accs) {
			t.Fatalf("drained %d accesses, want %d", total, len(accs))
		}
	}
	drain() // warm: fills the pools
	if raceEnabled {
		drain() // the replay must still be exact; reuse is not assertable
		return
	}
	// The pipeline's setup (its struct, condition variable, channels, map
	// and worker goroutines) is about ten objects.
	const setupAllocs = 16
	if allocs := testing.AllocsPerRun(10, drain); allocs > setupAllocs {
		t.Errorf("Reset+drain allocates %.1f objects per pass, want at most %d", allocs, setupAllocs)
	}
}

// TestBatchPoolRecycles: a returned buffer has the canonical capacity and
// full length, and foreign-sized buffers are rejected rather than poisoning
// the pool.
func TestBatchPoolRecycles(t *testing.T) {
	buf := GetBatch()
	if len(buf) != DefaultBatchSize || cap(buf) != DefaultBatchSize {
		t.Fatalf("GetBatch: len %d cap %d, want %d", len(buf), cap(buf), DefaultBatchSize)
	}
	PutBatch(buf[:17]) // short length is fine; capacity is what matters
	buf2 := GetBatch()
	if len(buf2) != DefaultBatchSize {
		t.Fatalf("recycled batch has len %d, want %d", len(buf2), DefaultBatchSize)
	}
	PutBatch(buf2)
	PutBatch(make([]Access, 3)) // wrong capacity: dropped, not pooled
	if got := GetBatch(); len(got) != DefaultBatchSize {
		t.Fatalf("pool returned foreign buffer of len %d", len(got))
	}
}

// TestDecodeBatchMatchesNext: the indexed source's batched face and the
// sequential reference decoder's per-record Next produce identical
// streams, with a batch size that straddles every segment boundary.
func TestDecodeBatchMatchesNext(t *testing.T) {
	accs, img := batchTestImage(t, 20_000)
	want, err := readSequential(img)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewIndexedSource(bytes.NewReader(img), int64(len(img)), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	got := make([]Access, 0, len(accs))
	buf := make([]Access, 113) // deliberately off-power-of-two
	for {
		n, err := batched.NextBatch(buf)
		got = append(got, buf[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(accs) || len(want) != len(accs) {
		t.Fatalf("decoded %d (batched) and %d (sequential) accesses, want %d", len(got), len(want), len(accs))
	}
	for i := range got {
		if got[i] != accs[i] || want[i] != accs[i] {
			t.Fatalf("access %d: batched %+v, sequential %+v, want %+v", i, got[i], want[i], accs[i])
		}
	}
}
