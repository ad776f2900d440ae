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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"migratory/internal/memory"
)

// State is a protocol-defined per-line state. The cache only distinguishes
// present from absent; protocols define their own state enumerations and the
// meaning of Dirty.
type State uint8

// Line is one cache entry's protocol payload: 3 bytes and no pointers.
// The block it holds is the way's tag, kept beside it in the set, so a
// line does not repeat it. Protocol engines mutate State, Dirty and Aux in
// place through the pointer returned by Lookup/Insert. The coherence
// checker's data values live beside the caches, in Versions.
type Line struct {
	State State
	Dirty bool
	// Aux is protocol-defined auxiliary per-line state (for example, the
	// small hysteresis counter the paper suggests for adaptive snooping
	// protocols, §2.1). The cache itself never touches it.
	Aux uint8
}

// Victim is the line an Insert evicted, with the block it held.
type Victim struct {
	Block memory.BlockID
	Line
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
// A finite cache stores each set as assoc consecutive 16-byte ways, each
// holding its tag, its LRU stamp and its line, so a 4-way set is one
// 64-byte hardware cache line. The set scan of Lookup, Peek and Insert is
// the largest per-access cost of the sweep hot loop, and a hit finds its
// line in the same hardware line as its tag.
//
// Ways are allocated in chunks of chunkSets consecutive sets, each on the
// first Insert into one of its sets. A trace's shared footprint is often
// far smaller than the configured capacity (the paper's 1 MB caches over a
// few-hundred-KB footprint), so a cache costs memory in proportion to the
// sets it actually fills, not to its size. A set in an unallocated chunk
// is empty: Lookup, Peek and Invalidate miss there.
type Cache struct {
	cfg        Config
	chunks     [][]way // nil for infinite caches; a chunk is nil until its first Insert
	chunkLen   int     // ways per chunk: min(sets, chunkSets) * assoc
	assoc      int
	setMask    memory.BlockID
	shardShift uint                   // log2(Shards); global set index >> shardShift & setMask = local set
	infinite   *memory.BlockMap[Line] // used when cfg.SizeBytes == 0
	clock      uint32                 // the last LRU stamp handed out; see tick
	victim     Victim                 // the last line Insert evicted

	// mru memoizes the line of the last Lookup hit or Insert, holding
	// mruBlock; nil when that line was invalidated. A node's next access
	// usually names the same block, and a memo hit skips the set scan (or
	// the BlockMap probe) and the LRU stamp. Eliding the stamp is exact:
	// the memo line already holds the largest stamp in its set (every
	// stamp of a line repoints the memo at it), and Insert compares stamps
	// only within a set, so every victim choice is unchanged (DESIGN.md
	// §7). A memo hit does not advance the clock either: stamps only order
	// lines, and the clock still advances before every stamp.
	mru      *Line
	mruBlock memory.BlockID

	// Stats.
	hits      uint64
	misses    uint64
	evictions uint64
}

// chunkSetBits sets the allocation granule of a finite cache: 64 sets, so
// a 4-way, 16-byte-block chunk models 4 KB of data in 4 KB of ways
// (256 ways of 16 bytes), against 1 MB of ways for a whole 1 MB cache.
const (
	chunkSetBits = 6
	chunkSets    = 1 << chunkSetBits
)

// way is one slot of a set: 16 bytes and no pointers. used doubles as the
// validity flag: the clock advances before every stamp and never hands
// out 0, so a live line always has used != 0, and Invalidate just zeroes
// it.
type way struct {
	block memory.BlockID
	used  uint32 // LRU stamp; 0 means the way is empty
	line  Line
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
	c.chunks = make([][]way, (nsets+chunkSets-1)/chunkSets)
	c.chunkLen = min(nsets, chunkSets) * cfg.Assoc
	c.assoc = cfg.Assoc
	c.setMask = memory.BlockID(nsets - 1)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Infinite reports whether the cache has unbounded capacity.
func (c *Cache) Infinite() bool { return c.infinite != nil }

// locate returns the index of the chunk holding block b's set and the
// index of the set's first way within that chunk.
func (c *Cache) locate(b memory.BlockID) (chunk, base int) {
	set := int((b >> c.shardShift) & c.setMask)
	return set >> chunkSetBits, (set & (chunkSets - 1)) * c.assoc
}

// find returns the way holding block b, or nil if the block is not cached
// (an unallocated chunk holds nothing).
func (c *Cache) find(b memory.BlockID) *way {
	ci, base := c.locate(b)
	ch := c.chunks[ci]
	if ch == nil {
		return nil
	}
	set := ch[base : base+c.assoc]
	for i := range set {
		if set[i].block == b && set[i].used != 0 {
			return &set[i]
		}
	}
	return nil
}

// tick returns the next LRU stamp. Stamps are 32 bits, so before the
// clock would wrap, renumber re-stamps every set's valid ways 1..k in
// stamp order and restarts the clock at the largest of those ranks. That
// is exact because Insert compares stamps only within one set: every set
// keeps its order, and every later stamp is larger than all of them.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber replaces each set's valid stamps by their ranks 1..k and sets
// the clock to the largest rank in the cache.
func (c *Cache) renumber() {
	c.clock = 0
	order := make([]*way, 0, c.assoc)
	for _, ch := range c.chunks {
		for base := 0; base < len(ch); base += c.assoc {
			order = order[:0]
			for i := base; i < base+c.assoc; i++ {
				if ch[i].used != 0 {
					order = append(order, &ch[i])
				}
			}
			slices.SortFunc(order, func(x, y *way) int { return cmp.Compare(x.used, y.used) })
			for r, w := range order {
				w.used = uint32(r + 1)
			}
			c.clock = max(c.clock, uint32(len(order)))
		}
	}
}

// Lookup returns the line holding block b, touching LRU state, or nil if
// the block is not cached. The returned pointer stays valid until the line
// is evicted or invalidated. A repeat of the last hit or insert is served
// from the MRU memo by this body, small enough for the compiler to inline
// into the engines' loops; everything else takes lookupSet.
func (c *Cache) Lookup(b memory.BlockID) *Line {
	if c.mruBlock == b && c.mru != nil {
		c.hits++
		return c.mru
	}
	return c.lookupSet(b)
}

// lookupSet is Lookup past the memo: the set scan (or the BlockMap probe
// of an infinite cache), which stamps and memoizes a hit.
func (c *Cache) lookupSet(b memory.BlockID) *Line {
	var l *Line
	if c.infinite != nil {
		l = c.infinite.Get(b)
	} else if w := c.find(b); w != nil {
		w.used = c.tick()
		l = &w.line
	}
	if l == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.mru, c.mruBlock = l, b
	return l
}

// CreditHits counts n more hits without looking anything up. The engines'
// batch kernels use it for the silent repeats a folded trace carries on
// the access before them (trace.Folded): each repeat would have been a
// memo hit on the block that access left newest, which counts a hit and
// changes nothing else.
func (c *Cache) CreditHits(n uint64) { c.hits += n }

// Peek returns the line holding block b without touching LRU state, the
// MRU memo, or hit/miss statistics. Protocol engines use it when servicing
// remote requests (a remote read miss probing this cache is not a local
// access).
func (c *Cache) Peek(b memory.BlockID) *Line {
	if c.infinite != nil {
		return c.infinite.Get(b)
	}
	if w := c.find(b); w != nil {
		return &w.line
	}
	return nil
}

// Insert adds block b with the given state, evicting the LRU line of the
// set if necessary. It returns a pointer to the inserted line and, if an
// eviction occurred, a pointer to a copy of the victim. The copy lives in
// the cache and stays valid until the next Insert, so an eviction
// allocates nothing. (A victim returned by value costs more: Go spills the
// struct through memory on every call, evicting or not.) Inserting a
// block that is already present panics: protocol engines must Lookup
// first.
func (c *Cache) Insert(b memory.BlockID, st State) (line *Line, victim *Victim) {
	if c.infinite != nil {
		l, created := c.infinite.GetOrCreate(b)
		if !created {
			panic(fmt.Sprintf("cache: Insert of present block %d", b))
		}
		*l = Line{State: st}
		c.mru, c.mruBlock = l, b
		return l, nil
	}
	ci, base := c.locate(b)
	if c.chunks[ci] == nil {
		c.chunks[ci] = make([]way, c.chunkLen)
	}
	set := c.chunks[ci][base : base+c.assoc]
	free, lru := -1, -1
	for i := range set {
		if set[i].used == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if set[i].block == b {
			panic(fmt.Sprintf("cache: Insert of present block %d", b))
		}
		if lru < 0 || set[i].used < set[lru].used {
			lru = i
		}
	}
	target := free
	if target < 0 {
		target = lru
		c.victim = Victim{Block: set[target].block, Line: set[target].line}
		victim = &c.victim
		c.evictions++
	}
	w := &set[target]
	*w = way{block: b, used: c.tick(), line: Line{State: st}}
	// Repointing the memo here means an evicted line is never the memo.
	c.mru, c.mruBlock = &w.line, b
	return c.mru, victim
}

// Invalidate removes block b if present, returning whether it was present.
// Invalidation (a coherence action, not a replacement) does not count as an
// eviction.
func (c *Cache) Invalidate(b memory.BlockID) bool {
	if c.mruBlock == b {
		c.mru = nil
	}
	if c.infinite != nil {
		return c.infinite.Delete(b)
	}
	if w := c.find(b); w != nil {
		w.used = 0
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
	for _, ch := range c.chunks {
		for i := range ch {
			if ch[i].used != 0 {
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
	for _, ch := range c.chunks {
		for i := range ch {
			if ch[i].used != 0 {
				out = append(out, ch[i].block)
			}
		}
	}
	return out
}

// Stats reports hits, misses, and evictions since construction.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}
