package trace

import (
	"sync"
	"sync/atomic"

	"migratory/internal/telemetry"
)

// DefaultTraceCacheBytes is the default capacity of the process-wide
// decoded-segment cache behind -trace-cache-bytes (~256 MB). 0 disables
// the cache entirely.
const DefaultTraceCacheBytes = 256 << 20

// accessFootprint is the heap footprint one decoded Access contributes to
// the cache budget (Access is a 16-byte struct; slab bookkeeping is noise
// next to the data).
const accessFootprint = 16

// FileID identifies one on-disk trace file instance for cache keying:
// device and inode pin the file object, size and mtime pin its content
// generation, so a rewritten or truncated trace can never serve segments
// decoded from its previous bytes. On platforms without dev/ino the Ino
// field carries a hash of the absolute path instead (see fileid_other.go).
type FileID struct {
	Dev     uint64
	Ino     uint64
	Size    int64
	MTimeNs int64
}

// segCacheKey is one decoded segment's cache identity.
type segCacheKey struct {
	file FileID
	seg  int
}

// segCacheEntry is one (possibly still decoding) cached segment. refs
// counts in-flight pins; an entry is LRU-linked only while evictable
// (decoded, refs == 0).
type segCacheEntry struct {
	key   segCacheKey
	accs  []Access
	bytes int64
	err   error
	ready chan struct{} // closed when decode finishes (accs or err set)
	done  bool          // decode finished (guarded by cache mu)
	refs  int           // in-flight pins (guarded by cache mu)

	prev, next *segCacheEntry // LRU links, valid while evictable
}

// SegmentCache is a process-wide, memory-bounded, ref-counted LRU of
// decoded .mtr (v3) segments, shared across every sweep cell and cohd
// request that replays the same trace file: the first acquisition of a
// segment decodes it once, and every later acquisition —
// concurrent (single-flight) or subsequent (resident) — shares the same
// immutable []Access slab.
//
// Consumers acquire a segment with Acquire and release the returned pin
// when done; pinned segments are never evicted or mutated, so replay stays
// bit-identical to an uncached decode. Unpinned segments age out
// least-recently-used once resident bytes exceed the configured capacity;
// an evicted segment simply decodes again on next use.
//
// All methods are safe for concurrent use. A nil *SegmentCache is a valid
// always-miss cache: attachment points treat it as "caching off".
type SegmentCache struct {
	capBytes int64

	mu       sync.Mutex
	entries  map[segCacheKey]*segCacheEntry
	lruHead  *segCacheEntry // most recently released
	lruTail  *segCacheEntry // eviction candidate
	resident int64
	pinned   int64
	peak     int64

	hits       atomic.Uint64
	misses     atomic.Uint64
	joins      atomic.Uint64
	evictions  atomic.Uint64
	evictedByt atomic.Uint64
}

// NewSegmentCache builds a cache bounded at capBytes of decoded accesses.
// capBytes <= 0 returns nil — the disabled cache every attachment point
// treats as "decode as before".
func NewSegmentCache(capBytes int64) *SegmentCache {
	if capBytes <= 0 {
		return nil
	}
	return &SegmentCache{
		capBytes: capBytes,
		entries:  make(map[segCacheKey]*segCacheEntry),
	}
}

// PinnedSegment is one acquired segment: an immutable decoded slab the
// holder may read until Release. Neither the slab nor its subslices may be
// mutated or returned to the batch pools.
type PinnedSegment struct {
	c    *SegmentCache
	e    *segCacheEntry
	once sync.Once
}

// Accesses returns the decoded segment. The slice is shared and immutable;
// it is valid until Release.
func (p *PinnedSegment) Accesses() []Access { return p.e.accs }

// Release drops the pin. Idempotent. After the last pin drops the segment
// becomes evictable (most-recently-used first).
func (p *PinnedSegment) Release() {
	p.once.Do(func() { p.c.release(p.e) })
}

// Acquire returns a pin on the decoded segment (id, seg), decoding via
// decode when it is not resident. Concurrent acquirers of the same segment
// share one decode (single-flight); a decode error is returned to every
// waiter and nothing is cached. The caller must Release the pin.
func (c *SegmentCache) Acquire(id FileID, seg int, decode func() ([]Access, error)) (*PinnedSegment, error) {
	key := segCacheKey{file: id, seg: seg}
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		joined := !e.done
		c.pinLocked(e)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The decode owner already uncached the entry; just drop the ref.
			c.release(e)
			return nil, e.err
		}
		c.hits.Add(1)
		if joined {
			c.joins.Add(1)
		}
		return &PinnedSegment{c: c, e: e}, nil
	}

	e := &segCacheEntry{key: key, refs: 1, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	accs, err := decode()
	c.mu.Lock()
	if err != nil {
		e.err = err
		// Failed decodes are not cached: unmap so the next acquirer retries.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		close(e.ready)
		c.mu.Unlock()
		return nil, err
	}
	e.accs = accs
	e.bytes = int64(len(accs)) * accessFootprint
	e.done = true
	c.resident += e.bytes
	c.pinned += e.bytes
	if c.pinned > c.peak {
		c.peak = c.pinned
	}
	close(e.ready)
	c.evictLocked()
	c.mu.Unlock()
	return &PinnedSegment{c: c, e: e}, nil
}

// pinLocked takes one reference on e, unlinking it from the LRU when it
// was evictable.
func (c *SegmentCache) pinLocked(e *segCacheEntry) {
	if e.refs == 0 && e.done {
		c.lruUnlink(e)
		c.pinned += e.bytes
		if c.pinned > c.peak {
			c.peak = c.pinned
		}
	}
	e.refs++
}

// release drops one reference; the last drop makes a resident entry
// evictable at the most-recently-used end and trims to capacity.
func (c *SegmentCache) release(e *segCacheEntry) {
	c.mu.Lock()
	e.refs--
	if e.refs == 0 && e.done && c.entries[e.key] == e {
		c.pinned -= e.bytes
		c.lruPushFront(e)
		c.evictLocked()
	}
	c.mu.Unlock()
}

// evictLocked drops least-recently-used unpinned entries until resident
// bytes fit the capacity. Pinned entries are untouchable, so a burst of
// concurrent pins may transiently exceed the budget; it drains as pins
// release.
func (c *SegmentCache) evictLocked() {
	for c.resident > c.capBytes && c.lruTail != nil {
		e := c.lruTail
		c.lruUnlink(e)
		delete(c.entries, e.key)
		c.resident -= e.bytes
		c.evictions.Add(1)
		c.evictedByt.Add(uint64(e.bytes))
	}
}

func (c *SegmentCache) lruPushFront(e *segCacheEntry) {
	e.prev = nil
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *SegmentCache) lruUnlink(e *segCacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.lruHead == e {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.lruTail == e {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Stats returns the cache observation the telemetry plane publishes
// (Sample.Cache, run manifests, /metrics). Nil-receiver safe: a disabled
// cache reports all zeros.
func (c *SegmentCache) Stats() telemetry.CacheStats {
	if c == nil {
		return telemetry.CacheStats{}
	}
	c.mu.Lock()
	cs := telemetry.CacheStats{
		CapBytes:        c.capBytes,
		ResidentBytes:   c.resident,
		PinnedBytes:     c.pinned,
		PeakPinnedBytes: c.peak,
		Entries:         len(c.entries),
	}
	c.mu.Unlock()
	cs.Hits = c.hits.Load()
	cs.Misses = c.misses.Load()
	cs.SingleFlightJoins = c.joins.Load()
	cs.Evictions = c.evictions.Load()
	cs.EvictedBytes = c.evictedByt.Load()
	return cs
}
