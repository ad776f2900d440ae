package cache

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"migratory/internal/memory"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"paper 4K", Config{SizeBytes: 4096, BlockSize: 16, Assoc: 4}, false},
		{"paper 1M", Config{SizeBytes: 1 << 20, BlockSize: 16, Assoc: 4}, false},
		{"infinite", Config{SizeBytes: 0, BlockSize: 64}, false},
		{"bad block", Config{SizeBytes: 4096, BlockSize: 24, Assoc: 4}, true},
		{"zero block", Config{SizeBytes: 4096, BlockSize: 0, Assoc: 4}, true},
		{"negative size", Config{SizeBytes: -1, BlockSize: 16, Assoc: 4}, true},
		{"zero assoc", Config{SizeBytes: 4096, BlockSize: 16, Assoc: 0}, true},
		{"size not multiple of block", Config{SizeBytes: 4100, BlockSize: 16, Assoc: 4}, true},
		{"lines not divisible by assoc", Config{SizeBytes: 48, BlockSize: 16, Assoc: 4}, true},
		{"sets not power of two", Config{SizeBytes: 16 * 4 * 3, BlockSize: 16, Assoc: 4}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err != nil) != c.wantErr {
				t.Fatalf("Validate() = %v; wantErr = %v", err, c.wantErr)
			}
		})
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, BlockSize: 16, Assoc: 4})
}

func TestLookupInsertInvalidate(t *testing.T) {
	c := New(Config{SizeBytes: 1024, BlockSize: 16, Assoc: 4})
	if l := c.Lookup(5); l != nil {
		t.Fatal("lookup in empty cache hit")
	}
	l, ev := c.Insert(5, 2)
	if ev != nil {
		t.Fatal("eviction from empty cache")
	}
	if l.State != 2 || l.Dirty || l.Aux != 0 {
		t.Fatalf("inserted line = %+v", l)
	}
	got := c.Lookup(5)
	if got == nil || got != l {
		t.Fatal("lookup did not return the inserted line")
	}
	got.Dirty = true
	got.State = 3
	if p := c.Peek(5); p.State != 3 || !p.Dirty {
		t.Fatal("mutation through pointer not visible")
	}
	if !c.Invalidate(5) {
		t.Fatal("Invalidate missed present block")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate hit absent block")
	}
	if c.Lookup(5) != nil {
		t.Fatal("block present after invalidate")
	}
}

func TestInsertPresentPanics(t *testing.T) {
	c := New(Config{SizeBytes: 1024, BlockSize: 16, Assoc: 4})
	c.Insert(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(1, 0)
}

func TestLRUEviction(t *testing.T) {
	// 4 sets, assoc 2: blocks map to set b % 4.
	c := New(Config{SizeBytes: 8 * 16, BlockSize: 16, Assoc: 2})
	// Fill set 0 with blocks 0 and 4.
	c.Insert(0, 0)
	c.Insert(4, 0)
	// Touch 0 so 4 becomes LRU.
	c.Lookup(0)
	l, ev := c.Insert(8, 0)
	if ev == nil || ev.Block != 4 {
		t.Fatalf("evicted %+v; want block 4", ev)
	}
	if c.Peek(8) != l {
		t.Fatalf("Peek(8) is not the line Insert(8) returned")
	}
	if c.Peek(0) == nil || c.Peek(8) == nil || c.Peek(4) != nil {
		t.Fatal("post-eviction contents wrong")
	}
	_, _, evs := c.Stats()
	if evs != 1 {
		t.Fatalf("evictions = %d", evs)
	}
}

func TestEvictionReportsDirtyVictim(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 16, BlockSize: 16, Assoc: 2})
	l, _ := c.Insert(0, 1)
	l.Dirty = true
	l.Aux = 7
	c.Insert(2, 0) // same set (only one set)
	_, ev := c.Insert(4, 0)
	if ev == nil || ev.Block != 0 || !ev.Dirty || ev.State != 1 || ev.Aux != 7 {
		t.Fatalf("victim = %+v; want dirty block 0 state 1 aux 7", ev)
	}
}

func TestSetIsolation(t *testing.T) {
	// Blocks in different sets never evict each other.
	c := New(Config{SizeBytes: 4 * 16, BlockSize: 16, Assoc: 1})
	for b := memory.BlockID(0); b < 4; b++ {
		if _, ev := c.Insert(b, 0); ev != nil {
			t.Fatalf("cross-set eviction inserting %d: %+v", b, ev)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Block 4 conflicts with block 0 only.
	_, ev := c.Insert(4, 0)
	if ev == nil || ev.Block != 0 {
		t.Fatalf("victim = %+v; want block 0", ev)
	}
}

func TestInfiniteCacheNeverEvicts(t *testing.T) {
	c := New(Config{SizeBytes: 0, BlockSize: 16})
	if !c.Infinite() {
		t.Fatal("not infinite")
	}
	for b := memory.BlockID(0); b < 10000; b++ {
		if _, ev := c.Insert(b, 0); ev != nil {
			t.Fatalf("infinite cache evicted %+v", ev)
		}
	}
	if c.Len() != 10000 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Lookup(9999) == nil || c.Lookup(0) == nil {
		t.Fatal("infinite cache lost a block")
	}
	if !c.Invalidate(500) || c.Peek(500) != nil {
		t.Fatal("infinite cache invalidate failed")
	}
	hits, misses, evs := c.Stats()
	if evs != 0 || hits != 2 || misses != 0 {
		t.Fatalf("stats = %d %d %d", hits, misses, evs)
	}
}

func TestPeekDoesNotTouchLRUOrStats(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 16, BlockSize: 16, Assoc: 2})
	c.Insert(0, 0)
	c.Insert(1, 0)
	h0, m0, _ := c.Stats()
	// Peek block 0 repeatedly; block 0 must still be LRU (insert order).
	for i := 0; i < 5; i++ {
		if c.Peek(0) == nil {
			t.Fatal("peek missed")
		}
	}
	h1, m1, _ := c.Stats()
	if h1 != h0 || m1 != m0 {
		t.Fatal("Peek changed stats")
	}
	_, ev := c.Insert(2, 0)
	if ev == nil || ev.Block != 0 {
		t.Fatalf("victim = %+v; want block 0 (Peek must not refresh LRU)", ev)
	}
}

func TestBlocksListing(t *testing.T) {
	c := New(Config{SizeBytes: 1024, BlockSize: 16, Assoc: 4})
	want := map[memory.BlockID]bool{3: true, 9: true, 100: true}
	for b := range want {
		c.Insert(b, 0)
	}
	got := c.Blocks()
	if len(got) != len(want) {
		t.Fatalf("Blocks = %v", got)
	}
	for _, b := range got {
		if !want[b] {
			t.Fatalf("unexpected block %d", b)
		}
	}
}

func TestHitMissAccounting(t *testing.T) {
	c := New(Config{SizeBytes: 1024, BlockSize: 16, Assoc: 4})
	c.Lookup(1) // miss
	c.Insert(1, 0)
	c.Lookup(1) // hit
	c.Lookup(1) // hit
	c.Lookup(2) // miss
	h, m, _ := c.Stats()
	if h != 2 || m != 2 {
		t.Fatalf("hits=%d misses=%d", h, m)
	}
}

// Property: a finite cache never holds more lines than its capacity and
// never holds two lines for one block, under random operations.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 8 * 16, BlockSize: 16, Assoc: 2})
		for _, op := range ops {
			b := memory.BlockID(op % 32)
			switch (op / 32) % 3 {
			case 0:
				if c.Lookup(b) == nil {
					c.Insert(b, 0)
				}
			case 1:
				c.Invalidate(b)
			case 2:
				c.Peek(b)
			}
			if c.Len() > 8 {
				return false
			}
			seen := map[memory.BlockID]bool{}
			for _, blk := range c.Blocks() {
				if seen[blk] {
					return false
				}
				seen[blk] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LRU within a set — after inserting A, B and touching A, an
// insert that overflows the set always evicts B.
func TestLRUWithinSetProperty(t *testing.T) {
	f := func(seed uint8) bool {
		c := New(Config{SizeBytes: 2 * 16, BlockSize: 16, Assoc: 2})
		a := memory.BlockID(seed)
		b := a + 1 // both map to the single set
		c.Insert(a, 0)
		c.Insert(b, 0)
		c.Lookup(a)
		_, ev := c.Insert(b+1, 0)
		return ev != nil && ev.Block == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLineLayout guards the layout of a set: a 3-byte line inside a
// 16-byte way, so a 4-way set fills one 64-byte hardware cache line, and
// both free of pointers, so a cache's chunks are never scanned by the
// garbage collector.
func TestLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 3 {
		t.Errorf("Line is %d bytes, want 3", n)
	}
	if n := unsafe.Sizeof(way{}); n != 16 {
		t.Errorf("way is %d bytes, want 16", n)
	}
	for _, v := range []any{Line{}, way{}} {
		if typ := reflect.TypeOf(v); memory.HasPointers(typ) {
			t.Errorf("%v contains pointers", typ)
		}
	}
}
