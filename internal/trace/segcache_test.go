package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"migratory/internal/memory"
	"migratory/internal/telemetry"
)

// testAccs builds n deterministic accesses spread over a handful of nodes
// and blocks.
func testAccs(n int) []Access {
	accs := make([]Access, n)
	for i := range accs {
		k := Read
		if i%3 == 0 {
			k = Write
		}
		accs[i] = Access{
			Node: memory.NodeID(i % 7),
			Kind: k,
			Addr: memory.Addr((i % 97) * 16),
		}
	}
	return accs
}

// testSeg folds testAccs(n) over 16 nodes: the payload a cache miss
// decodes.
func testSeg(t testing.TB, n int) *Folded {
	t.Helper()
	f, err := Fold(testAccs(n), 16)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// writeSegmentedMTR writes accs as an MTR3 file with small segments (so a
// modest trace spans many of them) and returns the path.
func writeSegmentedMTR(t *testing.T, dir string, accs []Access, segBytes int) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Header{BlockSize: 16, PageSize: 4096, Nodes: 16},
		WriterOptions{SegmentBytes: segBytes})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg.mtr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSegmentCacheHitMissRefcount(t *testing.T) {
	c := NewSegmentCache(1 << 20)
	id := FileID{Dev: 1, Ino: 2, Size: 3, MTimeNs: 4}
	want := testSeg(t, 100)
	decodes := 0
	decode := func() (*Folded, error) { decodes++; return want, nil }

	p1, err := c.Acquire(id, 0, decode)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Folded() != want || !reflect.DeepEqual(p1.Folded().Expand(), testAccs(100)) {
		t.Fatal("decoded segment mismatch")
	}
	p2, err := c.Acquire(id, 0, decode)
	if err != nil {
		t.Fatal(err)
	}
	if decodes != 1 {
		t.Fatalf("decode ran %d times, want 1", decodes)
	}
	if p1.Folded() != p2.Folded() {
		t.Fatal("hit did not share the resident segment")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	if b := want.footprint(); st.PinnedBytes != b || st.ResidentBytes != b {
		t.Fatalf("pinned %d resident %d, want both %d", st.PinnedBytes, st.ResidentBytes, b)
	}

	p1.Release()
	p1.Release() // idempotent
	p2.Release()
	st = c.Stats()
	if st.PinnedBytes != 0 {
		t.Fatalf("pinned %d after release, want 0", st.PinnedBytes)
	}
	if st.ResidentBytes == 0 || st.Entries != 1 {
		t.Fatalf("released segment should stay resident: %+v", st)
	}

	// A different segment index of the same file is a distinct entry.
	if _, err := c.Acquire(id, 1, decode); err != nil {
		t.Fatal(err)
	}
	if decodes != 2 {
		t.Fatalf("decode ran %d times, want 2 (distinct segment)", decodes)
	}
}

func TestSegmentCacheSingleFlight(t *testing.T) {
	c := NewSegmentCache(1 << 20)
	id := FileID{Ino: 9, Size: 10, MTimeNs: 11}
	const workers = 8
	var decodes atomic.Int32
	seg := testSeg(t, 50)
	decode := func() (*Folded, error) {
		decodes.Add(1)
		// Hold the decode open until every other worker has pinned the
		// in-flight entry (joiners pin before blocking on ready), so all of
		// them join this single flight deterministically.
		for {
			c.mu.Lock()
			refs := c.entries[segCacheKey{file: id, seg: 0}].refs
			c.mu.Unlock()
			if refs >= workers {
				break
			}
			runtime.Gosched()
		}
		return seg, nil
	}

	var wg sync.WaitGroup
	segs := make([]*Folded, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Acquire(id, 0, decode)
			if err != nil {
				errs[i] = err
				return
			}
			segs[i] = p.Folded()
			p.Release()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if n := decodes.Load(); n != 1 {
		t.Fatalf("decode ran %d times under %d concurrent acquirers, want 1", n, workers)
	}
	for i := 1; i < workers; i++ {
		if segs[i] != segs[0] {
			t.Fatalf("worker %d got a different segment", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats %d/%d (hits/misses), want %d/1", st.Hits, st.Misses, workers-1)
	}
	if st.SingleFlightJoins != workers-1 {
		t.Fatalf("%d single-flight joins, want %d", st.SingleFlightJoins, workers-1)
	}
}

func TestSegmentCacheLRUEviction(t *testing.T) {
	// Capacity of exactly two 100-access segments.
	one := testSeg(t, 100).footprint()
	c := NewSegmentCache(2 * one)
	id := FileID{Ino: 1}
	acquire := func(seg int) *PinnedSegment {
		t.Helper()
		p, err := c.Acquire(id, seg, func() (*Folded, error) { return Fold(testAccs(100), 16) })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	acquire(0).Release()
	acquire(1).Release()
	acquire(0).Release() // refresh 0: now 1 is least recently used
	acquire(2).Release() // over budget: evicts 1
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after overflow: %d evictions, %d entries, want 1 and 2", st.Evictions, st.Entries)
	}
	if st.ResidentBytes != st.CapBytes {
		t.Fatalf("resident %d, want %d", st.ResidentBytes, st.CapBytes)
	}
	hits := st.Hits
	acquire(0).Release() // still resident
	if st = c.Stats(); st.Hits != hits+1 {
		t.Fatal("segment 0 was evicted; want LRU to keep it")
	}
	misses := st.Misses
	acquire(1).Release() // decodes again (miss), not served stale
	if st = c.Stats(); st.Misses != misses+1 {
		t.Fatal("segment 1 should re-decode after eviction")
	}

	// A pinned segment is untouchable even when the budget bursts.
	pin := acquire(3)
	acquire(4).Release()
	acquire(5).Release()
	if got := pin.Folded(); got.Len() != 100 {
		t.Fatal("pinned segment went away under eviction pressure")
	}
	st = c.Stats()
	if st.PinnedBytes != one {
		t.Fatalf("pinned bytes %d, want %d", st.PinnedBytes, one)
	}
	if st.PeakPinnedBytes < st.PinnedBytes {
		t.Fatalf("peak pinned %d below current %d", st.PeakPinnedBytes, st.PinnedBytes)
	}
	pin.Release()
	if st = c.Stats(); st.ResidentBytes > st.CapBytes {
		t.Fatalf("resident %d exceeds capacity %d after all pins released", st.ResidentBytes, st.CapBytes)
	}
}

func TestSegmentCacheDecodeErrorNotCached(t *testing.T) {
	c := NewSegmentCache(1 << 20)
	id := FileID{Ino: 42}
	boom := errors.New("boom")
	if _, err := c.Acquire(id, 0, func() (*Folded, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the decode error", err)
	}
	// The failure is not cached: the next acquirer retries and succeeds.
	p, err := c.Acquire(id, 0, func() (*Folded, error) { return testSeg(t, 10), nil })
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	st := c.Stats()
	if st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v: want 2 misses and 1 resident entry", st)
	}
}

func TestSegmentCacheSingleFlightError(t *testing.T) {
	c := NewSegmentCache(1 << 20)
	id := FileID{Ino: 7}
	boom := errors.New("boom")
	gate := make(chan struct{})
	const workers = 4
	var wg sync.WaitGroup
	errCount := atomic.Int32{}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Acquire(id, 0, func() (*Folded, error) { <-gate; return nil, boom })
			if errors.Is(err, boom) {
				errCount.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := errCount.Load(); n != workers {
		t.Fatalf("%d of %d acquirers saw the decode error", n, workers)
	}
	if st := c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("failed decode left residue: %+v", st)
	}
}

func TestSegmentCacheDisabled(t *testing.T) {
	if c := NewSegmentCache(0); c != nil {
		t.Fatal("capacity 0 should disable the cache (nil)")
	}
	if c := NewSegmentCache(-1); c != nil {
		t.Fatal("negative capacity should disable the cache (nil)")
	}
	var c *SegmentCache
	if st := c.Stats(); st != (telemetry.CacheStats{}) {
		t.Fatalf("nil cache stats not zero: %+v", st)
	}
}

// TestIndexedSourceCacheEquivalence replays one segmented MTR3 file through
// IndexedFileSource with and without a cache attached, sequentially and
// with parallel decoders, and requires identical access streams. Across
// both cached replays every segment decodes exactly once.
func TestIndexedSourceCacheEquivalence(t *testing.T) {
	accs := testAccs(20_000)
	path := writeSegmentedMTR(t, t.TempDir(), accs, 2<<10)

	read := func(cache *SegmentCache, decoders int) []Access {
		t.Helper()
		src, err := OpenFileParallelCache(path, decoders, cache)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		got, err := ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	want := read(nil, 1)
	if !reflect.DeepEqual(want, accs) {
		t.Fatal("uncached replay does not match the written trace")
	}
	c := NewSegmentCache(64 << 20)
	for _, decoders := range []int{1, 4} {
		if got := read(c, decoders); !reflect.DeepEqual(got, want) {
			t.Fatalf("cached replay (decoders=%d) diverged", decoders)
		}
	}
	st := c.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("second replay should hit the cache: %+v", st)
	}
	if st.PinnedBytes != 0 {
		t.Fatalf("%d bytes still pinned after Close", st.PinnedBytes)
	}
	if st.Misses != uint64(st.Entries) {
		t.Fatalf("%d misses for %d resident segments: segments decoded more than once", st.Misses, st.Entries)
	}
}

// runAccs builds n accesses in single-node runs over a few granules, the
// shape folding acts on, with nodes below 16 (or, with wide, up to 199).
func runAccs(n int, wide bool) []Access {
	accs := make([]Access, 0, n)
	for i := 0; len(accs) < n; i++ {
		node := memory.NodeID(i * 5 % 16)
		if wide {
			node = memory.NodeID(i * 37 % 200)
		}
		base := memory.Addr(i%13) * 48
		for r := 0; r < 1+i%6 && len(accs) < n; r++ {
			accs = append(accs, Access{Node: node, Kind: Kind((i + r/2) & 1), Addr: base | memory.Addr(r*3)})
		}
	}
	return accs
}

// readFace drains one face of the trace at path.
func readFace(t *testing.T, path string, cache *SegmentCache, decoders int, kept bool) []Access {
	t.Helper()
	src, err := OpenFileParallelCache(path, decoders, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if kept {
		src.WithKept()
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSegmentFoldFaces checks the two faces of a cached indexed source.
// The exact face replays the written trace, at any decoder count. The
// kept face is each segment folded by a fresh folder, concatenated, and
// the cache counts those kept accesses and tapes as its resident bytes.
// Without a cache both faces are the exact stream.
func TestSegmentFoldFaces(t *testing.T) {
	accs := runAccs(20_000, false)
	path := writeSegmentedMTR(t, t.TempDir(), accs, 2<<10)
	src, err := OpenFileParallelCache(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := src.Index()
	src.Close()

	var want []Access
	var bytes int64
	off := 0
	for _, seg := range idx.Segments {
		f, err := Fold(accs[off:off+int(seg.Count)], 16)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, keptAccesses(t, f)...)
		bytes += f.footprint()
		off += int(seg.Count)
	}
	if len(idx.Segments) < 10 || len(want) >= len(accs)*3/4 {
		t.Fatalf("%d segments keep %d of %d accesses: the trace does not exercise folding", len(idx.Segments), len(want), len(accs))
	}

	c := NewSegmentCache(64 << 20)
	for _, decoders := range []int{1, 4} {
		if got := readFace(t, path, c, decoders, false); !reflect.DeepEqual(got, accs) {
			t.Fatalf("cached exact face (decoders=%d) differs from the trace", decoders)
		}
		if got := readFace(t, path, c, decoders, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("kept face (decoders=%d) differs from the per-segment fold", decoders)
		}
	}
	st := c.Stats()
	if st.Misses != uint64(len(idx.Segments)) || st.ResidentBytes != bytes || st.PinnedBytes != 0 {
		t.Fatalf("cache %+v: want %d misses, %d resident bytes, none pinned", st, len(idx.Segments), bytes)
	}
	if got := readFace(t, path, nil, 2, true); !reflect.DeepEqual(got, accs) {
		t.Fatal("uncached kept face differs from the trace")
	}
}

// TestSegmentFoldRefused checks that a segment the folder refuses, here
// from a header without a node count over nodes up to 199, is cached with
// every access kept, and that both faces replay the trace.
func TestSegmentFoldRefused(t *testing.T) {
	accs := runAccs(5_000, true)
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Header{BlockSize: 16, PageSize: 4096}, WriterOptions{SegmentBytes: 2 << 10})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.mtr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewSegmentCache(64 << 20)
	for _, kept := range []bool{false, true} {
		if got := readFace(t, path, c, 2, kept); !reflect.DeepEqual(got, accs) {
			t.Fatalf("face kept=%v of a refused trace differs from it", kept)
		}
	}
	if st := c.Stats(); st.ResidentBytes != int64(len(accs))*(keptFootprint+tapeFootprint) {
		t.Fatalf("resident %d bytes, want every access kept (%d)", st.ResidentBytes, len(accs)*(keptFootprint+tapeFootprint))
	}
}

// TestSegmentCacheReset pins the Reset contract: a cached indexed source
// rewinds and replays identically, serving the second pass from residency.
func TestSegmentCacheReset(t *testing.T) {
	accs := testAccs(10_000)
	path := writeSegmentedMTR(t, t.TempDir(), accs, 2<<10)
	c := NewSegmentCache(64 << 20)
	src, err := OpenFileParallelCache(path, 2, c)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	first, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	second, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replay after Reset diverged")
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatalf("replay after Reset should hit the cache: %+v", st)
	}
}

// TestFileIDChangesWithContent pins the cache-key fence: rewriting a file
// (different size or mtime) must change its FileID.
func TestFileIDChangesWithContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.mtr")
	if err := os.WriteFile(path, []byte("aaaa"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	id1, ok := fileIDFor(path, fi)
	if !ok {
		t.Skip("no file identity on this platform")
	}
	if err := os.WriteFile(path, []byte("bbbbbbbb"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fi, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	id2, _ := fileIDFor(path, fi)
	if id1 == id2 {
		t.Fatal("rewritten file (different size) kept the same FileID")
	}
}

// TestSegmentCacheFencesRestoredMTime rewrites one record's kind in place
// (same length, same inode) and restores the file's mtime, so dev/ino,
// size and mtime all match the cached generation. A reopen through the
// same cache must still return the new records: the segment CRCs in the
// index identity tell the two generations apart.
func TestSegmentCacheFencesRestoredMTime(t *testing.T) {
	before := testAccs(5_000)
	after := append([]Access(nil), before...)
	after[4321].Kind ^= 1
	dir := t.TempDir()
	path := writeSegmentedMTR(t, dir, before, 2<<10)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSegmentCache(64 << 20)
	read := func() []Access {
		t.Helper()
		src, err := OpenFileParallelCache(path, 2, c)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		got, err := ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := read(); !reflect.DeepEqual(got, before) {
		t.Fatal("first replay does not match the written trace")
	}

	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writeSegmentedMTR(t, dir, after, 2<<10) // same path, rewritten in place
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(old) || bytes.Equal(fresh, old) {
		t.Fatalf("rewrite is %d bytes (was %d) and equal=%v: want a same-length change", len(fresh), len(old), bytes.Equal(fresh, old))
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}

	got := read()
	if len(got) != len(after) {
		t.Fatalf("replay after rewrite decoded %d records, want %d", len(got), len(after))
	}
	for i := range after {
		if got[i] != after[i] {
			t.Fatalf("record %d after rewrite: got %v, want %v (stale cached segment)", i, got[i], after[i])
		}
	}
}
