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
	want := testAccs(100)
	decodes := 0
	decode := func() ([]Access, error) { decodes++; return want, nil }

	p1, err := c.Acquire(id, 0, decode)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Accesses(), want) {
		t.Fatal("decoded slab mismatch")
	}
	p2, err := c.Acquire(id, 0, decode)
	if err != nil {
		t.Fatal(err)
	}
	if decodes != 1 {
		t.Fatalf("decode ran %d times, want 1", decodes)
	}
	if &p1.Accesses()[0] != &p2.Accesses()[0] {
		t.Fatal("hit did not share the resident slab")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	if want := int64(len(want)) * accessFootprint; st.PinnedBytes != want || st.ResidentBytes != want {
		t.Fatalf("pinned %d resident %d, want both %d", st.PinnedBytes, st.ResidentBytes, want)
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
	decode := func() ([]Access, error) {
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
		return testAccs(50), nil
	}

	var wg sync.WaitGroup
	slabs := make([][]Access, workers)
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
			slabs[i] = p.Accesses()
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
		if &slabs[i][0] != &slabs[0][0] {
			t.Fatalf("worker %d got a different slab", i)
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
	c := NewSegmentCache(2 * 100 * accessFootprint)
	id := FileID{Ino: 1}
	acquire := func(seg int) *PinnedSegment {
		t.Helper()
		p, err := c.Acquire(id, seg, func() ([]Access, error) { return testAccs(100), nil })
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
	if got := pin.Accesses(); len(got) != 100 {
		t.Fatal("pinned slab went away under eviction pressure")
	}
	st = c.Stats()
	if st.PinnedBytes != 100*accessFootprint {
		t.Fatalf("pinned bytes %d, want %d", st.PinnedBytes, 100*accessFootprint)
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
	if _, err := c.Acquire(id, 0, func() ([]Access, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the decode error", err)
	}
	// The failure is not cached: the next acquirer retries and succeeds.
	p, err := c.Acquire(id, 0, func() ([]Access, error) { return testAccs(10), nil })
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
			_, err := c.Acquire(id, 0, func() ([]Access, error) { <-gate; return nil, boom })
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
