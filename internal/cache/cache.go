// Package cache models the per-node private caches of the simulated
// multiprocessor: 4-way set-associative with LRU replacement, matching the
// paper's simplified architectural model (§3.3). An "infinite" mode with no
// capacity or conflict misses backs the block-size study (Table 3), which
// the paper runs with "caches large enough to eliminate capacity misses".
//
// The cache stores protocol-defined line states as opaque small integers;
// coherence semantics live in the protocol engines (internal/directory and
// internal/snoop), which react to the victims this package reports.
package cache

import (
	"fmt"
	"math/bits"

	"migratory/internal/memory"
)

// State is a protocol-defined per-line state. The cache only distinguishes
// present from absent; protocols define their own state enumerations and the
// meaning of Dirty.
type State uint8

// Line is one cache entry. Protocol engines mutate State, Dirty, and
// Version in place through the pointer returned by Lookup/Insert.
type Line struct {
	Block memory.BlockID
	State State
	Dirty bool
	// Version is an instrumentation field for coherence checking: the
	// simulated "data value" of the block, maintained by the protocol
	// engines as a monotonically increasing write counter.
	Version uint64
	// Aux is protocol-defined auxiliary per-line state (for example, the
	// small hysteresis counter the paper suggests for adaptive snooping
	// protocols, §2.1). The cache itself never touches it.
	Aux uint8
}

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity. Zero means infinite (no capacity or
	// conflict misses).
	SizeBytes int
	// BlockSize in bytes. Must match the experiment geometry.
	BlockSize int
	// Assoc is the set associativity. The paper uses 4-way throughout.
	// Ignored for infinite caches.
	Assoc int
	// Shards and ShardIndex carve a set-sharded slice out of the cache:
	// when Shards > 1 the cache holds only the sets whose index is
	// congruent to ShardIndex modulo Shards, and stores them compactly (a
	// sharded run's per-shard caches together cost the same memory as one
	// full cache). Shards must be a power of two no larger than the set
	// count; zero means unsharded. Blocks outside the shard's sets must
	// never be presented to the cache — set sharding is the caller's
	// routing contract, not checked per access.
	Shards     int
	ShardIndex int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache: block size %d is not a positive power of two", c.BlockSize)
	}
	if c.Shards > 1 {
		if c.Shards&(c.Shards-1) != 0 {
			return fmt.Errorf("cache: shard count %d is not a power of two", c.Shards)
		}
		if c.ShardIndex < 0 || c.ShardIndex >= c.Shards {
			return fmt.Errorf("cache: shard index %d out of range [0, %d)", c.ShardIndex, c.Shards)
		}
	} else if c.ShardIndex != 0 {
		return fmt.Errorf("cache: shard index %d without sharding", c.ShardIndex)
	}
	if c.SizeBytes == 0 {
		return nil // infinite
	}
	if c.SizeBytes < 0 {
		return fmt.Errorf("cache: negative size %d", c.SizeBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d must be positive", c.Assoc)
	}
	lines := c.SizeBytes / c.BlockSize
	if lines*c.BlockSize != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of block size %d", c.SizeBytes, c.BlockSize)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	if c.Shards > sets {
		return fmt.Errorf("cache: %d shards exceed %d sets", c.Shards, sets)
	}
	return nil
}

// Cache is a single node's private cache. The zero value is not usable;
// construct with New.
//
// Finite caches store tags and line payloads in parallel arrays: the
// Lookup/Peek scan touches only the compact tag entries (16 bytes per way,
// so a 4-way set's tags share one hardware cache line), and the fat Line
// payload is dereferenced only on a hit. Profiles of the sweep hot loop
// show the tag scan as the single largest per-access cost, which makes its
// memory footprint worth this layout.
//
// Both arrays are split into chunks of chunkSets consecutive sets, each
// allocated on the first Insert into one of its sets. A trace's shared
// footprint is often far smaller than the configured capacity (the paper's
// 1 MB caches over a few-hundred-KB footprint), so a cache costs memory in
// proportion to the sets it actually fills, not to its size. A set in an
// unallocated chunk is empty: Lookup, Peek and Invalidate miss there.
type Cache struct {
	cfg        Config
	chunks     []setChunk // nil for infinite caches
	chunkLen   int        // ways per chunk: min(sets, chunkSets) * assoc
	assoc      int
	setMask    memory.BlockID
	shardShift uint                   // log2(Shards); global set index >> shardShift & setMask = local set
	infinite   *memory.BlockMap[Line] // used when cfg.SizeBytes == 0
	clock      uint64
	victim     Line // the last line Insert evicted

	// Stats.
	hits      uint64
	misses    uint64
	evictions uint64
}

// chunkSetBits sets the allocation granule of a finite cache: 64 sets, so
// a 4-way, 16-byte-block chunk models 4 KB of data in 12 KB of tags and
// lines, against 3 MB for a whole 1 MB cache.
const (
	chunkSetBits = 6
	chunkSets    = 1 << chunkSetBits
)

// setChunk holds chunkSets consecutive sets; tags and lines are nil until
// the chunk's first Insert.
type setChunk struct {
	tags  []tagEntry // len == chunkLen once allocated
	lines []Line     // parallel to tags
}

// tagEntry is the scanned portion of one way. used doubles as the validity
// flag: the clock is incremented before every stamp, so a live line always
// has used != 0, and Invalidate just zeroes it.
type tagEntry struct {
	block memory.BlockID
	used  uint64 // LRU timestamp; 0 means the way is empty
}

// New builds a cache from cfg. It panics if cfg is invalid; callers
// configure caches from validated experiment descriptions.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	if cfg.SizeBytes == 0 {
		c.infinite = new(memory.BlockMap[Line])
		return c
	}
	nsets := cfg.SizeBytes / cfg.BlockSize / cfg.Assoc
	if cfg.Shards > 1 {
		// A shard stores its 1/Shards of the sets compactly. A block's low
		// bits select the shard, so the local set index is the remaining
		// set-index bits: (block >> log2(Shards)) & (nsets/Shards - 1).
		nsets /= cfg.Shards
		c.shardShift = uint(bits.TrailingZeros(uint(cfg.Shards)))
	}
	c.chunks = make([]setChunk, (nsets+chunkSets-1)/chunkSets)
	c.chunkLen = min(nsets, chunkSets) * cfg.Assoc
	c.assoc = cfg.Assoc
	c.setMask = memory.BlockID(nsets - 1)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Infinite reports whether the cache has unbounded capacity.
func (c *Cache) Infinite() bool { return c.infinite != nil }

// locate returns the chunk holding block b's set and the index of the
// set's first way within that chunk.
func (c *Cache) locate(b memory.BlockID) (*setChunk, int) {
	set := int((b >> c.shardShift) & c.setMask)
	return &c.chunks[set>>chunkSetBits], (set & (chunkSets - 1)) * c.assoc
}

// find returns the way index of block b within its set's chunk, or -1 if
// the block is not cached (an unallocated chunk holds nothing).
func (c *Cache) find(ch *setChunk, base int, b memory.BlockID) int {
	if ch.tags == nil {
		return -1
	}
	tags := ch.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i].block == b && tags[i].used != 0 {
			return base + i
		}
	}
	return -1
}

// Lookup returns the line holding block b, touching LRU state, or nil if
// the block is not cached. The returned pointer stays valid until the line
// is evicted or invalidated.
func (c *Cache) Lookup(b memory.BlockID) *Line {
	c.clock++
	if c.infinite != nil {
		if l := c.infinite.Get(b); l != nil {
			c.hits++
			return l
		}
		c.misses++
		return nil
	}
	ch, base := c.locate(b)
	if i := c.find(ch, base, b); i >= 0 {
		ch.tags[i].used = c.clock
		c.hits++
		return &ch.lines[i]
	}
	c.misses++
	return nil
}

// Peek returns the line holding block b without touching LRU state or
// hit/miss statistics. Protocol engines use it when servicing remote
// requests (a remote read miss probing this cache is not a local access).
func (c *Cache) Peek(b memory.BlockID) *Line {
	if c.infinite != nil {
		return c.infinite.Get(b)
	}
	ch, base := c.locate(b)
	if i := c.find(ch, base, b); i >= 0 {
		return &ch.lines[i]
	}
	return nil
}

// Insert adds block b with the given state, evicting the LRU line of the
// set if necessary. It returns a pointer to the inserted line and, if an
// eviction occurred, a pointer to a copy of the victim. The copy lives in
// the cache and stays valid until the next Insert, so an eviction
// allocates nothing. (A victim returned by value costs more: Go spills a
// five-field struct through memory on every call, evicting or not.)
// Inserting a block that is already present panics: protocol engines must
// Lookup first.
func (c *Cache) Insert(b memory.BlockID, st State) (line, victim *Line) {
	c.clock++
	if c.infinite != nil {
		l, created := c.infinite.GetOrCreate(b)
		if !created {
			panic(fmt.Sprintf("cache: Insert of present block %d", b))
		}
		*l = Line{Block: b, State: st}
		return l, nil
	}
	ch, base := c.locate(b)
	if ch.tags == nil {
		ch.tags = make([]tagEntry, c.chunkLen)
		ch.lines = make([]Line, c.chunkLen)
	}
	tags := ch.tags[base : base+c.assoc]
	free, lru := -1, -1
	for i := range tags {
		if tags[i].used == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if tags[i].block == b {
			panic(fmt.Sprintf("cache: Insert of present block %d", b))
		}
		if lru < 0 || tags[i].used < tags[lru].used {
			lru = i
		}
	}
	target := free
	if target < 0 {
		target = lru
		c.victim = ch.lines[base+target]
		victim = &c.victim
		c.evictions++
	}
	tags[target] = tagEntry{block: b, used: c.clock}
	ch.lines[base+target] = Line{Block: b, State: st}
	return &ch.lines[base+target], victim
}

// Invalidate removes block b if present, returning whether it was present.
// Invalidation (a coherence action, not a replacement) does not count as an
// eviction.
func (c *Cache) Invalidate(b memory.BlockID) bool {
	if c.infinite != nil {
		return c.infinite.Delete(b)
	}
	ch, base := c.locate(b)
	if i := c.find(ch, base, b); i >= 0 {
		ch.tags[i].used = 0
		return true
	}
	return false
}

// Len returns the number of valid lines.
func (c *Cache) Len() int {
	if c.infinite != nil {
		return c.infinite.Len()
	}
	n := 0
	for ci := range c.chunks {
		for _, t := range c.chunks[ci].tags {
			if t.used != 0 {
				n++
			}
		}
	}
	return n
}

// Blocks returns the IDs of all valid lines, in no particular order.
func (c *Cache) Blocks() []memory.BlockID {
	out := make([]memory.BlockID, 0, c.Len())
	if c.infinite != nil {
		c.infinite.ForEach(func(b memory.BlockID, _ *Line) {
			out = append(out, b)
		})
		return out
	}
	for ci := range c.chunks {
		for _, t := range c.chunks[ci].tags {
			if t.used != 0 {
				out = append(out, t.block)
			}
		}
	}
	return out
}

// Stats reports hits, misses, and evictions since construction.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}
