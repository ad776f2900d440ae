package cache

import (
	"math"
	"math/rand"
	"testing"

	"migratory/internal/memory"
)

// TestStampWrap pins the renumbering that keeps 32-bit LRU stamps exact.
// Two caches replay one random operation stream; one starts its clock a
// few thousand stamps below 2^32, so its clock wraps while its sets are
// full. Every lookup (hit or miss, and which line), every victim and the
// hit, miss and eviction totals must match the fresh cache's, at
// associativity 1, 2, 4 and 8 and on one shard of a 4-way set-sharded
// cache.
func TestStampWrap(t *testing.T) {
	const (
		sets  = 16 // sets per shard
		ops   = 200_000
		start = math.MaxUint32 - 5000
	)
	cases := []struct {
		name          string
		assoc, shards int
	}{
		{"assoc1", 1, 1},
		{"assoc2", 2, 1},
		{"assoc4", 4, 1},
		{"assoc8", 8, 1},
		{"shards4", 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx := tc.shards - 1
			cfg := Config{SizeBytes: sets * tc.shards * tc.assoc * 16, BlockSize: 16, Assoc: tc.assoc, Shards: tc.shards, ShardIndex: idx}
			fresh, wrapped := New(cfg), New(cfg)
			wrapped.clock = start
			block := func(k int) memory.BlockID { return memory.BlockID(k*tc.shards + idx) }
			span := 3 * sets * tc.assoc
			rng := rand.New(rand.NewSource(int64(tc.assoc*10 + tc.shards)))
			for op := 0; op < ops; op++ {
				b := block(rng.Intn(span))
				switch rng.Intn(8) {
				default: // access: lookup, insert on miss
					lf, lw := fresh.Lookup(b), wrapped.Lookup(b)
					if (lf != nil) != (lw != nil) || lw != nil && !tagged(lw, b) {
						t.Fatalf("op %d: lookup(%d) = %+v, fresh cache %+v", op, b, lw, lf)
					}
					if lf != nil {
						continue
					}
					_, vf := insertTagged(fresh, b)
					_, vw := insertTagged(wrapped, b)
					if (vf != nil) != (vw != nil) || vf != nil && (vf.Block != vw.Block || !tagged(&vw.Line, vw.Block)) {
						t.Fatalf("op %d: insert(%d) victim %+v, fresh cache %+v", op, b, vw, vf)
					}
				case 0:
					if gf, gw := fresh.Invalidate(b), wrapped.Invalidate(b); gf != gw {
						t.Fatalf("op %d: invalidate(%d) = %v, fresh cache %v", op, b, gw, gf)
					}
				case 1:
					if pf, pw := fresh.Peek(b), wrapped.Peek(b); (pf != nil) != (pw != nil) || pw != nil && !tagged(pw, b) {
						t.Fatalf("op %d: peek(%d) = %+v, fresh cache %+v", op, b, pw, pf)
					}
				}
			}
			if wrapped.clock >= start {
				t.Fatalf("clock %d never wrapped", wrapped.clock)
			}
			hf, mf, ef := fresh.Stats()
			hw, mw, ew := wrapped.Stats()
			if hf != hw || mf != mw || ef != ew || ef == 0 {
				t.Fatalf("stats %d/%d/%d hits/misses/evictions, fresh cache %d/%d/%d", hw, mw, ew, hf, mf, ef)
			}
		})
	}
}

// FuzzCacheAgainstReference drives Lookup (inserting on a miss),
// Invalidate and Peek against the naive reference model from a clock
// that starts anywhere, so inputs near 2^32 cross the stamp wrap. geom
// picks associativity 1, 2, 4 or 8 and 1, 2 or 4 set shards of 4 sets
// each; every op byte is an operation (low two bits) and a block draw.
func FuzzCacheAgainstReference(f *testing.F) {
	f.Add(uint32(0), uint8(2), []byte{0, 4, 8, 12, 16, 20, 0, 1, 2, 3})
	f.Add(uint32(math.MaxUint32-3), uint8(2), []byte{0, 64, 128, 192, 0, 64, 4, 68, 132, 196, 1, 0, 2})
	f.Add(uint32(math.MaxUint32), uint8(1), []byte{0, 32, 64, 96, 128, 160, 192, 224, 0, 32})
	f.Add(uint32(math.MaxUint32-10), uint8(7), []byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 0, 5, 6})
	f.Fuzz(func(t *testing.T, start uint32, geom uint8, ops []byte) {
		const sets = 4 // sets per shard
		assoc, shards := 1<<(geom%4), 1<<(geom/4%3)
		idx := int(start) % shards
		c := New(Config{SizeBytes: sets * shards * assoc * 16, BlockSize: 16, Assoc: assoc, Shards: shards, ShardIndex: idx})
		c.clock = start
		ref := newRef(sets*shards, assoc)
		var hits, misses uint64
		for op, x := range ops {
			b := memory.BlockID(int(x>>2)*shards + idx)
			switch x & 3 {
			case 0, 1: // access: lookup, insert on miss
				l := c.Lookup(b)
				if refHit := ref.lookup(b); (l != nil) != refHit || l != nil && !tagged(l, b) {
					t.Fatalf("op %d: lookup(%d) = %+v, ref hit %v", op, b, l, refHit)
				}
				if l != nil {
					hits++
					continue
				}
				misses++
				_, victim := insertTagged(c, b)
				if refVictim, refEvicted := ref.insert(b); !victimOK(victim, refVictim, refEvicted) {
					t.Fatalf("op %d: insert(%d) victim %+v, ref %d/%v", op, b, victim, refVictim, refEvicted)
				}
			case 2:
				if got, want := c.Invalidate(b), ref.invalidate(b); got != want {
					t.Fatalf("op %d: invalidate(%d) = %v, ref %v", op, b, got, want)
				}
			case 3:
				if l := c.Peek(b); (l != nil) != ref.present(b) || l != nil && !tagged(l, b) {
					t.Fatalf("op %d: peek(%d) = %+v, ref present %v", op, b, l, ref.present(b))
				}
			}
		}
		h, m, e := c.Stats()
		if h != hits || m != misses || int(e) != ref.evictions || c.Len() != lenRef(ref) {
			t.Fatalf("stats %d/%d/%d hits/misses/evictions, len %d; ref %d/%d/%d, len %d",
				h, m, e, c.Len(), hits, misses, ref.evictions, lenRef(ref))
		}
	})
}
