package directory

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"migratory/internal/core"
	"migratory/internal/cost"
	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/trace"
)

var geom = memory.MustGeometry(16, 4096)

// newSys builds a 16-node system with an infinite cache over a single page
// homed at node 0 (round-robin places page 0 at node 0), with coherence
// checking on.
func newSys(t *testing.T, p core.Policy) *System {
	t.Helper()
	s, err := New(Config{
		Nodes:          16,
		Geometry:       geom,
		CacheBytes:     0,
		Policy:         p,
		Placement:      placement.NewRoundRobin(16),
		CheckCoherence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, s *System, accs []trace.Access) {
	t.Helper()
	for i, a := range accs {
		if err := s.Access(a); err != nil {
			t.Fatalf("access %d (%v): %v", i, a, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after access %d (%v): %v", i, a, err)
		}
	}
}

// rw emits read-then-write turns on one block by the given node sequence.
func rw(addr memory.Addr, nodes ...memory.NodeID) []trace.Access {
	var out []trace.Access
	for _, n := range nodes {
		out = append(out,
			trace.Access{Node: n, Kind: trace.Read, Addr: addr},
			trace.Access{Node: n, Kind: trace.Write, Addr: addr},
		)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	base := Config{Nodes: 16, Geometry: geom, Policy: core.Basic, Placement: placement.NewRoundRobin(16)}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Nodes = 0
	if bad.Validate() == nil {
		t.Error("zero nodes accepted")
	}
	bad = base
	bad.Nodes = 100
	if bad.Validate() == nil {
		t.Error("too many nodes accepted")
	}
	bad = base
	bad.Placement = nil
	if bad.Validate() == nil {
		t.Error("nil placement accepted")
	}
	bad = base
	bad.Policy = core.Policy{Name: "x", Adaptive: true}
	if bad.Validate() == nil {
		t.Error("invalid policy accepted")
	}
	bad = base
	bad.CacheBytes = 100 // not a valid cache size
	if bad.Validate() == nil {
		t.Error("invalid cache accepted")
	}
	if _, err := New(bad); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestAccessRejectsOutOfRangeNode(t *testing.T) {
	s := newSys(t, core.Basic)
	if err := s.Access(trace.Access{Node: 16, Kind: trace.Read, Addr: 0}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestConventionalMigratoryCost traces the §2 example exactly: under the
// conventional protocol each migration of a dirty block costs a read-miss
// transaction plus an invalidation transaction.
func TestConventionalMigratoryCost(t *testing.T) {
	s := newSys(t, core.Conventional)
	// Home is node 0; nodes 1,2,3 are all remote.
	run(t, s, rw(0, 1))
	// P1 read: remote clean (1,1); P1 write: upgrade, no distant (2,0).
	if got := s.Messages(); got != (cost.Msgs{Short: 3, Data: 1}) {
		t.Fatalf("after first turn: %+v", got)
	}
	before := s.Messages()
	run(t, s, rw(0, 2))
	// P2 read: remote dirty, DistantCopies={1} -> (2,2).
	// P2 write: upgrade, DistantCopies={1} -> (4,0).
	delta := cost.Msgs{
		Short: s.Messages().Short - before.Short,
		Data:  s.Messages().Data - before.Data,
	}
	if delta != (cost.Msgs{Short: 6, Data: 2}) {
		t.Fatalf("steady-state turn cost: %+v; want {6 2}", delta)
	}
	// Every further turn costs the same.
	for turn, n := range []memory.NodeID{3, 1, 2, 3} {
		before = s.Messages()
		run(t, s, rw(0, n))
		delta = cost.Msgs{Short: s.Messages().Short - before.Short, Data: s.Messages().Data - before.Data}
		if delta != (cost.Msgs{Short: 6, Data: 2}) {
			t.Fatalf("turn %d cost %+v; want {6 2}", turn, delta)
		}
	}
	if s.Counters().Migrations != 0 {
		t.Fatal("conventional protocol migrated")
	}
}

// TestBasicAdaptiveHalvesMigratoryCost verifies the paper's headline claim:
// once classified, each migration costs one transaction instead of two,
// halving total messages (8 -> 4 per turn with home remote).
func TestBasicAdaptiveHalvesMigratoryCost(t *testing.T) {
	s := newSys(t, core.Basic)
	// Warm-up: P1 turn, P2 turn. The write hit by P2 with two copies and a
	// different last invalidator classifies the block (basic: one event).
	run(t, s, rw(0, 1, 2))
	if s.MigratoryBlocks() != 1 {
		t.Fatalf("block not classified after warm-up; counters %+v", s.Counters())
	}
	for turn, n := range []memory.NodeID{3, 1, 2, 3, 1} {
		before := s.Messages()
		run(t, s, rw(0, n))
		delta := cost.Msgs{Short: s.Messages().Short - before.Short, Data: s.Messages().Data - before.Data}
		if delta != (cost.Msgs{Short: 2, Data: 2}) {
			t.Fatalf("migratory turn %d cost %+v; want {2 2}", turn, delta)
		}
	}
	c := s.Counters()
	if c.Migrations != 5 {
		t.Fatalf("Migrations = %d; want 5", c.Migrations)
	}
	if c.WriteHits != 5 {
		t.Fatalf("silent write hits = %d; want 5", c.WriteHits)
	}
}

// TestConservativeNeedsTwoMigrations: the conservative variant keeps using
// the conventional pattern for one extra migration.
func TestConservativeNeedsTwoMigrations(t *testing.T) {
	s := newSys(t, core.Conservative)
	run(t, s, rw(0, 1, 2))
	if s.MigratoryBlocks() != 0 {
		t.Fatal("conservative classified after one event")
	}
	run(t, s, rw(0, 3))
	if s.MigratoryBlocks() != 1 {
		t.Fatal("conservative did not classify after two events")
	}
	// Steady state now matches basic.
	before := s.Messages()
	run(t, s, rw(0, 1))
	delta := cost.Msgs{Short: s.Messages().Short - before.Short, Data: s.Messages().Data - before.Data}
	if delta != (cost.Msgs{Short: 2, Data: 2}) {
		t.Fatalf("steady turn cost %+v; want {2 2}", delta)
	}
}

// TestAggressiveFirstTouch: the aggressive protocol grants write permission
// on the very first read, so even the first turn is fully silent after the
// initial fetch.
func TestAggressiveFirstTouch(t *testing.T) {
	s := newSys(t, core.Aggressive)
	run(t, s, rw(0, 1))
	// P1 read: remote clean fetch (1,1) with immediate exclusive grant;
	// P1 write: silent.
	if got := s.Messages(); got != (cost.Msgs{Short: 1, Data: 1}) {
		t.Fatalf("first turn: %+v; want {1 1}", got)
	}
	before := s.Messages()
	run(t, s, rw(0, 2))
	delta := cost.Msgs{Short: s.Messages().Short - before.Short, Data: s.Messages().Data - before.Data}
	if delta != (cost.Msgs{Short: 2, Data: 2}) {
		t.Fatalf("second turn: %+v; want {2 2}", delta)
	}
}

// TestAggressiveReadSharedPenaltyIsSmall: misclassifying a read-shared
// block costs one extra transaction's worth of data messages, once, and the
// block is then managed conventionally.
func TestAggressiveReadSharedPenaltyIsSmall(t *testing.T) {
	agg := newSys(t, core.Aggressive)
	conv := newSys(t, core.Conventional)
	var accs []trace.Access
	// Node 1 initializes, then nodes 2..9 read, twice around.
	accs = append(accs, trace.Access{Node: 1, Kind: trace.Write, Addr: 0})
	for round := 0; round < 2; round++ {
		for n := memory.NodeID(2); n < 10; n++ {
			accs = append(accs, trace.Access{Node: n, Kind: trace.Read, Addr: 0})
		}
	}
	run(t, agg, accs)
	run(t, conv, accs)
	a, c := agg.Messages(), conv.Messages()
	if a.Short > c.Short+1 || a.Data > c.Data+1 {
		t.Fatalf("aggressive %+v vs conventional %+v: penalty too large", a, c)
	}
	if agg.MigratoryBlocks() != 0 {
		t.Fatal("read-shared block still classified migratory")
	}
	// After declassification the replications proceed exactly like the
	// conventional protocol.
	ab, cb := agg.Messages(), conv.Messages()
	more := []trace.Access{
		{Node: 10, Kind: trace.Read, Addr: 0},
		{Node: 11, Kind: trace.Read, Addr: 0},
	}
	run(t, agg, more)
	run(t, conv, more)
	da := cost.Msgs{Short: agg.Messages().Short - ab.Short, Data: agg.Messages().Data - ab.Data}
	dc := cost.Msgs{Short: conv.Messages().Short - cb.Short, Data: conv.Messages().Data - cb.Data}
	if da != dc {
		t.Fatalf("post-declassification deltas differ: %+v vs %+v", da, dc)
	}
}

// TestHomeLocalOperationsAreFree: a node working on blocks homed at itself
// with no other sharers exchanges no messages under the adaptive protocol,
// and only upgrade traffic under the conventional one.
func TestHomeLocalOperationsAreFree(t *testing.T) {
	// Page 0 is homed at node 0 under round robin.
	agg := newSys(t, core.Aggressive)
	run(t, agg, rw(0, 0))
	if got := agg.Messages(); got != (cost.Msgs{}) {
		t.Fatalf("aggressive local turn: %+v; want zero", got)
	}
	conv := newSys(t, core.Conventional)
	run(t, conv, rw(0, 0))
	// Read miss local clean (0,0); write hit local clean DC=0 (0,0).
	if got := conv.Messages(); got != (cost.Msgs{}) {
		t.Fatalf("conventional local turn: %+v; want zero", got)
	}
}

// TestWriteMissPath: write misses with existing sharers invalidate them and
// classify per Figure 3.
func TestWriteMissPath(t *testing.T) {
	s := newSys(t, core.Basic)
	accs := []trace.Access{
		{Node: 1, Kind: trace.Write, Addr: 0}, // write miss, uncached
		{Node: 2, Kind: trace.Write, Addr: 0}, // write miss, dirty single copy: evidence
	}
	run(t, s, accs)
	if s.MigratoryBlocks() != 1 {
		t.Fatalf("write-miss evidence not recorded; counters %+v", s.Counters())
	}
	c := s.Counters()
	if c.WriteMisses != 2 || c.Invalidations != 1 {
		t.Fatalf("counters %+v", c)
	}
	// First write miss: remote uncached clean -> (1,1).
	// Second: remote dirty, owner is node 1, DistantCopies={1} -> (2,2).
	if got := s.Messages(); got != (cost.Msgs{Short: 3, Data: 3}) {
		t.Fatalf("messages %+v", got)
	}
}

// TestUncachedIntervalDetection: with a tiny cache, a block that is read,
// written, evicted, and then read and written by another node is detected
// as migratory through the last-invalidator memory (§2.2's "big savings
// even if there are relatively few coherency messages").
func TestUncachedIntervalDetection(t *testing.T) {
	s, err := New(Config{
		Nodes:          4,
		Geometry:       geom,
		CacheBytes:     64, // 4 lines of 16 bytes: 1 set of 4 ways
		Assoc:          4,
		Policy:         core.Basic,
		Placement:      placement.NewRoundRobin(4),
		CheckCoherence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1: read+write block 0, then touch 4 other blocks to evict it.
	accs := rw(0, 1)
	for i := 1; i <= 4; i++ {
		accs = append(accs, trace.Access{Node: 1, Kind: trace.Read, Addr: memory.Addr(i * 16)})
	}
	// Node 2: read+write block 0. The upgrade is the second migratory
	// event spanning the uncached interval.
	accs = append(accs, rw(0, 2)...)
	run(t, s, accs)
	if s.MigratoryBlocks() != 1 {
		t.Fatalf("uncached-interval migration not detected; counters %+v", s.Counters())
	}
	c := s.Counters()
	if c.WriteBacks == 0 {
		t.Fatalf("expected a write-back from the eviction; counters %+v", c)
	}
}

// TestEvictionMessages: dirty evictions cost a data message to a remote
// home; clean drops cost a short notification.
func TestEvictionMessages(t *testing.T) {
	s, err := New(Config{
		Nodes:          4,
		Geometry:       geom,
		CacheBytes:     32, // 2 lines: 1 set of 2 ways
		Assoc:          2,
		Policy:         core.Conventional,
		Placement:      placement.NewRoundRobin(4),
		CheckCoherence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All blocks in page 0, homed at node 0. Node 1 is remote.
	accs := []trace.Access{
		{Node: 1, Kind: trace.Write, Addr: 0}, // (1,1)
		{Node: 1, Kind: trace.Read, Addr: 16}, // (1,1)
		{Node: 1, Kind: trace.Read, Addr: 32}, // (1,1) + evicts dirty block 0 -> (0,1)
		{Node: 1, Kind: trace.Read, Addr: 48}, // (1,1) + evicts clean block 1 -> (1,0)
	}
	run(t, s, accs)
	want := cost.Msgs{Short: 1 + 1 + 1 + 0 + 1 + 1, Data: 1 + 1 + 1 + 1 + 1}
	if got := s.Messages(); got != want {
		t.Fatalf("messages %+v; want %+v", got, want)
	}
	c := s.Counters()
	if c.WriteBacks != 1 || c.CleanDrops != 1 {
		t.Fatalf("counters %+v", c)
	}
	if got := s.MessagesByOp(cost.WriteBack); got != (cost.Msgs{Short: 0, Data: 1}) {
		t.Fatalf("writeback msgs %+v", got)
	}
	if got := s.MessagesByOp(cost.DropClean); got != (cost.Msgs{Short: 1, Data: 0}) {
		t.Fatalf("drop msgs %+v", got)
	}
}

// TestLocalHomeEvictionsAreFree: replacements writing back to the local
// home cost nothing.
func TestLocalHomeEvictionsAreFree(t *testing.T) {
	s, err := New(Config{
		Nodes:          4,
		Geometry:       geom,
		CacheBytes:     32,
		Assoc:          2,
		Policy:         core.Conventional,
		Placement:      placement.NewRoundRobin(4),
		CheckCoherence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs := []trace.Access{
		{Node: 0, Kind: trace.Write, Addr: 0},
		{Node: 0, Kind: trace.Read, Addr: 16},
		{Node: 0, Kind: trace.Read, Addr: 32}, // evicts dirty block 0, home local
		{Node: 0, Kind: trace.Read, Addr: 48}, // evicts clean block 1, home local
	}
	run(t, s, accs)
	if got := s.Messages(); got != (cost.Msgs{}) {
		t.Fatalf("messages %+v; want zero", got)
	}
}

// TestReadHitAndSilentWritesCostNothing exercises the no-communication
// paths.
func TestReadHitAndSilentWritesCostNothing(t *testing.T) {
	s := newSys(t, core.Conventional)
	run(t, s, []trace.Access{
		{Node: 1, Kind: trace.Write, Addr: 0},
	})
	before := s.Messages()
	run(t, s, []trace.Access{
		{Node: 1, Kind: trace.Read, Addr: 0},
		{Node: 1, Kind: trace.Write, Addr: 0},
		{Node: 1, Kind: trace.Write, Addr: 4}, // same block
		{Node: 1, Kind: trace.Read, Addr: 8},
	})
	if s.Messages() != before {
		t.Fatalf("hits generated messages: %+v -> %+v", before, s.Messages())
	}
	c := s.Counters()
	if c.ReadHits != 2 || c.WriteHits != 2 {
		t.Fatalf("counters %+v", c)
	}
}

// TestMigrationOfCleanBlockDeclassifies: a migratory block that moves
// without being written flips back to replication.
func TestMigrationOfCleanBlockDeclassifies(t *testing.T) {
	s := newSys(t, core.Aggressive)
	run(t, s, []trace.Access{
		{Node: 1, Kind: trace.Read, Addr: 0}, // migratory grant, clean
		{Node: 2, Kind: trace.Read, Addr: 0}, // moved without modification
	})
	if s.MigratoryBlocks() != 0 {
		t.Fatal("clean migration did not declassify")
	}
	c := s.Counters()
	if c.Declassified != 1 || c.Migrations != 1 || c.Replications != 1 {
		t.Fatalf("counters %+v", c)
	}
	// Both nodes now hold readable copies.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	before := s.Messages()
	run(t, s, []trace.Access{{Node: 1, Kind: trace.Read, Addr: 0}})
	if s.Messages() != before {
		t.Fatal("node 1's copy was lost by the clean migration declassification")
	}
}

// TestEntryLayout guards the directory entry's size and keeps it free of
// pointers, so the entry table's chunks are never scanned by the garbage
// collector.
func TestEntryLayout(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 16 {
		t.Errorf("entry is %d bytes, want <= 16", n)
	}
	for _, v := range []any{entry{}, core.State{}} {
		if memory.HasPointers(reflect.TypeOf(v)) {
			t.Errorf("%T contains pointers", v)
		}
	}
}

// TestCoherenceCheckCatchesStaleCopy re-inserts an invalidated block into a
// cache behind the protocol's back: the coherence check must report the
// stale copy on the next read, for finite and infinite caches alike.
func TestCoherenceCheckCatchesStaleCopy(t *testing.T) {
	for _, size := range []int{0, 4096} {
		s, err := New(Config{
			Nodes: 4, Geometry: geom, CacheBytes: size, Policy: core.Basic,
			Placement: placement.NewRoundRobin(4), CheckCoherence: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		read := trace.Access{Node: 0, Kind: trace.Read, Addr: 64}
		for _, a := range []trace.Access{read, {Node: 1, Kind: trace.Write, Addr: 64}} {
			if err := s.Access(a); err != nil {
				t.Fatalf("size %d: %v: %v", size, a, err)
			}
		}
		b := geom.Block(64)
		if s.caches[0].Peek(b) != nil {
			t.Fatalf("size %d: node 0 still holds block %d after node 1's write", size, b)
		}
		s.caches[0].Insert(b, PermRead)
		if err := s.Access(read); err == nil || !strings.Contains(err.Error(), "stale read") {
			t.Fatalf("size %d: read of stale copy: err = %v, want stale read", size, err)
		}
	}
}
