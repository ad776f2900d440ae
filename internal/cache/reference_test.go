package cache

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"migratory/internal/memory"
)

// refCache is a deliberately naive reference implementation of a
// set-associative LRU cache, kept as obviously correct as possible: each
// set is an ordered slice, most recently used last.
type refCache struct {
	sets      [][]memory.BlockID
	assoc     int
	evictions int
}

func newRef(sets, assoc int) *refCache {
	return &refCache{sets: make([][]memory.BlockID, sets), assoc: assoc}
}

func (r *refCache) set(b memory.BlockID) int { return int(b) % len(r.sets) }

func (r *refCache) lookup(b memory.BlockID) bool {
	s := r.set(b)
	for i, x := range r.sets[s] {
		if x == b {
			// Move to MRU position.
			r.sets[s] = append(append(append([]memory.BlockID{}, r.sets[s][:i]...), r.sets[s][i+1:]...), b)
			return true
		}
	}
	return false
}

func (r *refCache) insert(b memory.BlockID) (victim memory.BlockID, evicted bool) {
	s := r.set(b)
	if len(r.sets[s]) == r.assoc {
		victim = r.sets[s][0]
		r.sets[s] = r.sets[s][1:]
		evicted = true
		r.evictions++
	}
	r.sets[s] = append(r.sets[s], b)
	return victim, evicted
}

func (r *refCache) present(b memory.BlockID) bool {
	return slices.Contains(r.sets[r.set(b)], b)
}

// insertTagged inserts block b and tags its line with b's low 16 bits,
// through State and Aux. A line no longer records its block, so the tag is
// how a test tells the right line from a wrong one.
func insertTagged(c *Cache, b memory.BlockID) (*Line, *Victim) {
	l, victim := c.Insert(b, State(b>>8))
	l.Aux = uint8(b)
	return l, victim
}

// tagged reports whether l carries block b's tag.
func tagged(l *Line, b memory.BlockID) bool {
	return l != nil && l.State == State(b>>8) && l.Aux == uint8(b)
}

// victimOK reports whether an insert's victim matches the reference
// model's: present exactly when the model evicted, naming the same block,
// and carrying that block's own line.
func victimOK(victim *Victim, refVictim memory.BlockID, refEvicted bool) bool {
	if victim == nil {
		return !refEvicted
	}
	return refEvicted && victim.Block == refVictim && tagged(&victim.Line, refVictim)
}

func (r *refCache) invalidate(b memory.BlockID) bool {
	s := r.set(b)
	for i, x := range r.sets[s] {
		if x == b {
			r.sets[s] = append(append([]memory.BlockID{}, r.sets[s][:i]...), r.sets[s][i+1:]...)
			return true
		}
	}
	return false
}

// TestAgainstReferenceModel runs long random operation sequences against
// both implementations and demands identical observable behaviour: hit or
// miss on every lookup, the same victim on every insert, and the same
// eviction totals.
func TestAgainstReferenceModel(t *testing.T) {
	const (
		sets  = 8
		assoc = 4
	)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: sets * assoc * 16, BlockSize: 16, Assoc: assoc})
		ref := newRef(sets, assoc)
		for op := 0; op < 5000; op++ {
			b := memory.BlockID(rng.Intn(64))
			switch rng.Intn(3) {
			case 0: // access: lookup, insert on miss
				l := c.Lookup(b)
				hit := l != nil
				refHit := ref.lookup(b)
				if hit != refHit {
					t.Fatalf("seed %d op %d: lookup(%d) = %v, ref %v", seed, op, b, hit, refHit)
				}
				if hit && !tagged(l, b) {
					t.Fatalf("seed %d op %d: lookup(%d) returned line %+v of another block", seed, op, b, *l)
				}
				if !hit {
					_, victim := insertTagged(c, b)
					refVictim, refEvicted := ref.insert(b)
					if !victimOK(victim, refVictim, refEvicted) {
						t.Fatalf("seed %d op %d: insert(%d) victim %+v, ref %d/%v", seed, op, b, victim, refVictim, refEvicted)
					}
				}
			case 1: // invalidate
				got := c.Invalidate(b)
				want := ref.invalidate(b)
				if got != want {
					t.Fatalf("seed %d op %d: invalidate(%d) = %v, ref %v", seed, op, b, got, want)
				}
			case 2: // peek must not disturb LRU
				l := c.Peek(b)
				if present := l != nil; present != ref.present(b) || present && !tagged(l, b) {
					t.Fatalf("seed %d op %d: peek(%d) = %+v, ref present %v", seed, op, b, l, ref.present(b))
				}
			}
		}
		_, _, evs := c.Stats()
		if int(evs) != ref.evictions {
			t.Fatalf("seed %d: evictions %d, ref %d", seed, evs, ref.evictions)
		}
		if c.Len() != lenRef(ref) {
			t.Fatalf("seed %d: len %d, ref %d", seed, c.Len(), lenRef(ref))
		}
	}
}

func lenRef(r *refCache) int {
	n := 0
	for _, s := range r.sets {
		n += len(s)
	}
	return n
}

// TestChunkedAgainstReferenceModel replays random operations on the
// lazily chunked layout against the reference model across associativity,
// set-shard count and set count — from sets smaller than one chunk to many
// chunks — and compares Len and Blocks at the end. Half the seeds confine
// inserts to the low sets, so probes of the rest land in chunks that were
// never allocated.
func TestChunkedAgainstReferenceModel(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, shards := range []int{1, 2, 8} {
			for _, sets := range []int{8, 32, 64, 1024} { // sets per shard
				for seed := int64(0); seed < 4; seed++ {
					checkChunked(t, assoc, shards, sets, seed)
				}
			}
		}
	}
}

func checkChunked(t *testing.T, assoc, shards, sets int, seed int64) {
	t.Helper()
	idx := int(seed) % shards
	c := New(Config{SizeBytes: sets * shards * assoc * 16, BlockSize: 16, Assoc: assoc, Shards: shards, ShardIndex: idx})
	ref := newRef(sets*shards, assoc)
	span := 2 * sets * assoc // enough distinct blocks to force evictions
	if seed%2 == 1 {
		span = sets / 2 // only the low half of the sets
	}
	// block maps a draw to the k-th block routed to this shard.
	block := func(k int) memory.BlockID { return memory.BlockID(k*shards + idx) }
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < 3000; op++ {
		b := block(rng.Intn(span))
		switch rng.Intn(3) {
		case 0:
			l := c.Lookup(b)
			hit := l != nil
			if hit != ref.lookup(b) || hit && !tagged(l, b) {
				t.Fatalf("assoc %d shards %d sets %d seed %d op %d: lookup(%d) = %+v", assoc, shards, sets, seed, op, b, l)
			}
			if !hit {
				_, victim := insertTagged(c, b)
				refVictim, refEvicted := ref.insert(b)
				if !victimOK(victim, refVictim, refEvicted) {
					t.Fatalf("assoc %d shards %d sets %d seed %d op %d: insert(%d) victim %+v, ref %d/%v",
						assoc, shards, sets, seed, op, b, victim, refVictim, refEvicted)
				}
			}
		case 1:
			if got, want := c.Invalidate(b), ref.invalidate(b); got != want {
				t.Fatalf("assoc %d shards %d sets %d seed %d op %d: invalidate(%d) = %v, ref %v", assoc, shards, sets, seed, op, b, got, want)
			}
		case 2: // probe anywhere in the shard, allocated chunk or not
			b = block(rng.Intn(4 * sets * assoc))
			if l := c.Peek(b); (l != nil) != ref.present(b) || l != nil && !tagged(l, b) {
				t.Fatalf("assoc %d shards %d sets %d seed %d op %d: peek(%d) = %+v, ref present %v", assoc, shards, sets, seed, op, b, l, ref.present(b))
			}
		}
	}
	var want []memory.BlockID
	for _, s := range ref.sets {
		want = append(want, s...)
	}
	got := c.Blocks()
	slices.Sort(got)
	slices.Sort(want)
	if c.Len() != len(want) || !slices.Equal(got, want) {
		t.Fatalf("assoc %d shards %d sets %d seed %d: Len %d Blocks %v, ref %v", assoc, shards, sets, seed, c.Len(), got, want)
	}
}

// TestEvictingInsertAllocatesNothing pins the cache-held victim copy:
// once a set's chunk exists, replacing its LRU line costs no heap
// allocation.
func TestEvictingInsertAllocatesNothing(t *testing.T) {
	const sets = 256
	c := New(Config{SizeBytes: sets * 4 * 16, BlockSize: 16, Assoc: 4})
	b := memory.BlockID(7)
	for i := 0; i < 4; i++ { // fill set 7
		c.Insert(b, 0)
		b += sets
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, victim := c.Insert(b, 0); victim == nil {
			t.Fatal("insert into a full set did not evict")
		}
		b += sets
	})
	if allocs != 0 {
		t.Fatalf("evicting Insert allocates %v times per call, want 0", allocs)
	}
}

// TestNewAllocatesLazily guards the footprint win: a 1 MB cache of
// 16-byte blocks (64 K ways, 1 MB of ways if allocated eagerly)
// costs only its chunk directory until something is inserted.
func TestNewAllocatesLazily(t *testing.T) {
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		New(Config{SizeBytes: 1 << 20, BlockSize: 16, Assoc: 4})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 64<<10 {
		t.Fatalf("New(1 MB, 16 B) allocates %d bytes before its first insert, want < 64 KB", per)
	}
}

// TestMemoAgainstReferenceModel drives repeat-heavy streams, the shape the
// MRU-line memo serves, against the reference model. About three lookups
// in four repeat the previous block; the rest mix in the two ways a memo
// can go stale: invalidating the MRU block and then looking it up again,
// and inserts that fill the MRU line's set until it is evicted. Every
// lookup's outcome and line, every victim, and the hit, miss and eviction
// totals must match, for finite caches at associativity 1, 2 and 4, an
// infinite cache (whose Invalidate is the BlockMap delete path) and one
// shard of a 4-way set-sharded cache.
func TestMemoAgainstReferenceModel(t *testing.T) {
	const sets = 16 // sets per shard
	cases := []struct {
		name   string
		assoc  int // 0 = infinite
		shards int
	}{
		{"assoc1", 1, 1},
		{"assoc2", 2, 1},
		{"assoc4", 4, 1},
		{"infinite", 0, 1},
		{"shards4", 4, 4},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 8; seed++ {
			checkMemo(t, tc.name, tc.assoc, tc.shards, sets, seed)
		}
	}
}

func checkMemo(t *testing.T, name string, assoc, shards, sets int, seed int64) {
	t.Helper()
	idx := int(seed) % shards
	cfg := Config{BlockSize: 16, Shards: shards, ShardIndex: idx}
	ref := newRef(1, 1<<30) // infinite: one set that never fills
	if assoc > 0 {
		cfg.SizeBytes, cfg.Assoc = sets*shards*assoc*16, assoc
		ref = newRef(sets*shards, assoc)
	}
	c := New(cfg)
	// block maps a draw to the k-th block routed to this shard; stride is
	// the draw distance between two blocks of the same set.
	block := func(k int) memory.BlockID { return memory.BlockID(k*shards + idx) }
	stride := sets
	var hits, misses uint64
	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s seed %d op %d: "+format, append([]any{name, seed, op}, args...)...)
	}
	// access looks b up in both models and inserts it on a miss.
	access := func(op int, b memory.BlockID) {
		t.Helper()
		l := c.Lookup(b)
		refHit := ref.lookup(b)
		if (l != nil) != refHit {
			fail(op, "lookup(%d) hit=%v, ref %v", b, l != nil, refHit)
		}
		if l != nil {
			hits++
			if !tagged(l, b) {
				fail(op, "lookup(%d) returned line %+v of another block", b, *l)
			}
			return
		}
		misses++
		_, victim := insertTagged(c, b)
		refVictim, refEvicted := ref.insert(b)
		if !victimOK(victim, refVictim, refEvicted) {
			fail(op, "insert(%d) victim %+v, ref %d/%v", b, victim, refVictim, refEvicted)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	span := 3 * sets * max(assoc, 1)
	k := rng.Intn(span) // draw of the previous lookup: the MRU block
	for op := 0; op < 6000; op++ {
		switch r := rng.Intn(100); {
		case r < 75: // repeat the previous block
			access(op, block(k))
		case r < 85: // a fresh block
			k = rng.Intn(span)
			access(op, block(k))
		case r < 90: // invalidate the MRU block, then look it up again
			if got, want := c.Invalidate(block(k)), ref.invalidate(block(k)); got != want {
				fail(op, "invalidate(%d) = %v, ref %v", block(k), got, want)
			}
			access(op, block(k))
		case r < 95: // fill the MRU line's set, then come back to it
			for j := 1; j <= max(assoc, 1); j++ {
				access(op, block(k+j*stride))
			}
			access(op, block(k))
		default: // peek anywhere: neither reads nor moves the memo
			b := block(rng.Intn(span))
			if l := c.Peek(b); (l != nil) != ref.present(b) || l != nil && !tagged(l, b) {
				fail(op, "peek(%d) = %+v, ref present %v", b, l, ref.present(b))
			}
		}
	}
	h, m, e := c.Stats()
	if h != hits || m != misses || int(e) != ref.evictions {
		t.Fatalf("%s seed %d: stats %d/%d/%d hits/misses/evictions, ref %d/%d/%d", name, seed, h, m, e, hits, misses, ref.evictions)
	}
	if c.Len() != lenRef(ref) {
		t.Fatalf("%s seed %d: len %d, ref %d", name, seed, c.Len(), lenRef(ref))
	}
}
