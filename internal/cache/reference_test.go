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
				hit := c.Lookup(b) != nil
				refHit := ref.lookup(b)
				if hit != refHit {
					t.Fatalf("seed %d op %d: lookup(%d) = %v, ref %v", seed, op, b, hit, refHit)
				}
				if !hit {
					_, victim := c.Insert(b, 0)
					refVictim, refEvicted := ref.insert(b)
					if (victim != nil) != refEvicted {
						t.Fatalf("seed %d op %d: insert(%d) evicted=%v, ref %v", seed, op, b, victim != nil, refEvicted)
					}
					if victim != nil && victim.Block != refVictim {
						t.Fatalf("seed %d op %d: insert(%d) victim %d, ref %d", seed, op, b, victim.Block, refVictim)
					}
				}
			case 1: // invalidate
				got := c.Invalidate(b)
				want := ref.invalidate(b)
				if got != want {
					t.Fatalf("seed %d op %d: invalidate(%d) = %v, ref %v", seed, op, b, got, want)
				}
			case 2: // peek must not disturb LRU
				present := c.Peek(b) != nil
				var refPresent bool
				for _, x := range ref.sets[ref.set(b)] {
					if x == b {
						refPresent = true
					}
				}
				if present != refPresent {
					t.Fatalf("seed %d op %d: peek(%d) = %v, ref %v", seed, op, b, present, refPresent)
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
			hit := c.Lookup(b) != nil
			if hit != ref.lookup(b) {
				t.Fatalf("assoc %d shards %d sets %d seed %d op %d: lookup(%d) = %v", assoc, shards, sets, seed, op, b, hit)
			}
			if !hit {
				l, victim := c.Insert(b, 0)
				refVictim, refEvicted := ref.insert(b)
				if l.Block != b || (victim != nil) != refEvicted || (victim != nil && victim.Block != refVictim) {
					t.Fatalf("assoc %d shards %d sets %d seed %d op %d: insert(%d) = %d, victim %+v, ref %d/%v",
						assoc, shards, sets, seed, op, b, l.Block, victim, refVictim, refEvicted)
				}
			}
		case 1:
			if got, want := c.Invalidate(b), ref.invalidate(b); got != want {
				t.Fatalf("assoc %d shards %d sets %d seed %d op %d: invalidate(%d) = %v, ref %v", assoc, shards, sets, seed, op, b, got, want)
			}
		case 2: // probe anywhere in the shard, allocated chunk or not
			b = block(rng.Intn(4 * sets * assoc))
			if got, want := c.Peek(b) != nil, ref.present(b); got != want {
				t.Fatalf("assoc %d shards %d sets %d seed %d op %d: peek(%d) = %v, ref %v", assoc, shards, sets, seed, op, b, got, want)
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

func (r *refCache) present(b memory.BlockID) bool {
	return slices.Contains(r.sets[r.set(b)], b)
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
// 16-byte blocks (64 K ways, 3 MB of tags and lines if allocated eagerly)
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
