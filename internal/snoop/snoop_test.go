package snoop

import (
	"strings"
	"testing"

	"migratory/internal/cache"
	"migratory/internal/memory"
	"migratory/internal/trace"
)

var geom = memory.MustGeometry(16, 4096)

func newSys(t *testing.T, p Protocol) *System {
	t.Helper()
	s, err := New(Config{
		Nodes:          16,
		Geometry:       geom,
		Protocol:       p,
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

func acc(n memory.NodeID, k trace.Kind, addr memory.Addr) trace.Access {
	return trace.Access{Node: n, Kind: k, Addr: addr}
}

// state fetches node n's state for block 0, or -1.
func state(s *System, n int) int { return s.States(0)[n] }

func TestConfigValidate(t *testing.T) {
	ok := Config{Nodes: 16, Geometry: geom, Protocol: Adaptive}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Nodes: 0, Geometry: geom},
		{Nodes: 65, Geometry: geom},
		{Nodes: 4, Geometry: geom, Protocol: Protocol(9)},
		{Nodes: 4, Geometry: geom, Protocol: Adaptive, Hysteresis: -1},
		{Nodes: 4, Geometry: geom, Protocol: MESI, Hysteresis: 2},
		{Nodes: 4, Geometry: geom, CacheBytes: 100},
	}
	for i, c := range cases {
		if c.Validate() == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted case %d", i)
		}
	}
}

func TestProtocolString(t *testing.T) {
	names := map[Protocol]string{
		MESI: "mesi", Adaptive: "adaptive",
		AdaptiveMigrateFirst: "adaptive-migrate-first", Symmetry: "symmetry",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", uint8(p), p.String())
		}
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Error("unknown protocol string")
	}
}

func TestStateName(t *testing.T) {
	for st, want := range map[cache.State]string{
		StateE: "E", StateS2: "S2", StateS: "S", StateD: "D", StateMC: "MC", StateMD: "MD",
	} {
		if got := StateName(st); got != want {
			t.Errorf("StateName(%d) = %q; want %q", uint8(st), got, want)
		}
	}
	if StateName(cache.State(9)) != "State(9)" {
		t.Error("unknown state name")
	}
}

func TestAccessRejectsOutOfRangeNode(t *testing.T) {
	s := newSys(t, Adaptive)
	if err := s.Access(acc(16, trace.Read, 0)); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestFigure2LocalTransitions walks every row of Figure 2's local-event
// table on the adaptive protocol.
func TestFigure2LocalTransitions(t *testing.T) {
	t.Run("I+Crm no response -> E", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{acc(1, trace.Read, 0)})
		if state(s, 1) != int(StateE) {
			t.Fatalf("state = %v", s.States(0))
		}
	})
	t.Run("I+Crm with S -> S", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{acc(1, trace.Read, 0), acc(2, trace.Read, 0)})
		if state(s, 1) != int(StateS2) || state(s, 2) != int(StateS) {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("I+Crm with M -> MC", func(t *testing.T) {
		s := newSys(t, Adaptive)
		// Build an MD line at node 1, then read from node 2.
		run(t, s, []trace.Access{
			acc(1, trace.Read, 0), acc(1, trace.Write, 0), // E -> D
			acc(2, trace.Read, 0),  // D -> S2, node 2 gets S
			acc(2, trace.Write, 0), // Bir: S2 asserts M; node 2 -> MD
			acc(3, trace.Read, 0),  // MD migrates: node 3 -> MC
		})
		if state(s, 3) != int(StateMC) {
			t.Fatalf("states = %v", s.States(0))
		}
		if state(s, 2) != -1 {
			t.Fatalf("old MD copy not invalidated: %v", s.States(0))
		}
		if s.Migrations() != 1 {
			t.Fatalf("Migrations = %d", s.Migrations())
		}
	})
	t.Run("I+Cwm no M -> D", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{acc(1, trace.Write, 0)})
		if state(s, 1) != int(StateD) {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("I+Cwm with M -> MD", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Write, 0), // D at 1 (single copy)
			acc(2, trace.Write, 0), // Bwmr to single D copy: M asserted
		})
		if state(s, 2) != int(StateMD) {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("E+Cwh -> D silently", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{acc(1, trace.Read, 0)})
		before := s.Counts()
		run(t, s, []trace.Access{acc(1, trace.Write, 0)})
		if state(s, 1) != int(StateD) {
			t.Fatalf("states = %v", s.States(0))
		}
		if s.Counts() != before {
			t.Fatal("E->D used the bus")
		}
	})
	t.Run("S2+Cwh -> D via Bir", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Read, 0), // E at 1
			acc(2, trace.Read, 0), // 1: S2, 2: S
		})
		run(t, s, []trace.Access{acc(1, trace.Write, 0)})
		// The older copy writing is not migratory: plain D.
		if state(s, 1) != int(StateD) || state(s, 2) != -1 {
			t.Fatalf("states = %v", s.States(0))
		}
		if s.Counts().Invalidation != 1 {
			t.Fatalf("counts = %+v", s.Counts())
		}
	})
	t.Run("S+Cwh with M -> MD", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Write, 0), // D at 1
			acc(2, trace.Read, 0),  // 1: S2, 2: S
			acc(2, trace.Write, 0), // Bir: S2 asserts M
		})
		if state(s, 2) != int(StateMD) || state(s, 1) != -1 {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("S+Cwh without M -> D", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Write, 0),
			acc(2, trace.Read, 0),
			acc(3, trace.Read, 0), // three copies: 1:S, 2:S, 3:S
			acc(3, trace.Write, 0),
		})
		if state(s, 3) != int(StateD) {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("MC+Cwh -> MD silently", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Write, 0),
			acc(2, trace.Read, 0),
			acc(2, trace.Write, 0), // MD at 2
			acc(3, trace.Read, 0),  // MC at 3
		})
		before := s.Counts()
		run(t, s, []trace.Access{acc(3, trace.Write, 0)})
		if state(s, 3) != int(StateMD) {
			t.Fatalf("states = %v", s.States(0))
		}
		if s.Counts() != before {
			t.Fatal("MC->MD used the bus")
		}
	})
}

// TestFigure2BusTransitions walks the bus-request table.
func TestFigure2BusTransitions(t *testing.T) {
	t.Run("E+Bwmr asserts M", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Read, 0),  // E at 1
			acc(2, trace.Write, 0), // Bwmr: single E copy -> M
		})
		if state(s, 2) != int(StateMD) || state(s, 1) != -1 {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("S2+Bwmr does not assert M", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Read, 0),
			acc(2, trace.Read, 0),  // 1:S2, 2:S — two copies
			acc(3, trace.Write, 0), // Bwmr with two copies: no M
		})
		if state(s, 3) != int(StateD) {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("MC+Brmr replicates back to S2/S", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Write, 0),
			acc(2, trace.Read, 0),
			acc(2, trace.Write, 0), // MD at 2
			acc(3, trace.Read, 0),  // MC at 3 (migrated)
			acc(4, trace.Read, 0),  // MC+Brmr: back to replicate
		})
		if state(s, 3) != int(StateS2) || state(s, 4) != int(StateS) {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("MC+Bwmr declassifies", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Write, 0),
			acc(2, trace.Read, 0),
			acc(2, trace.Write, 0), // MD at 2
			acc(3, trace.Read, 0),  // MC at 3
			acc(4, trace.Write, 0), // Bwmr to MC: no M
		})
		if state(s, 4) != int(StateD) || state(s, 3) != -1 {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("MD+Bwmr stays migratory", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Write, 0),
			acc(2, trace.Read, 0),
			acc(2, trace.Write, 0), // MD at 2
			acc(3, trace.Write, 0), // Bwmr to MD: M
		})
		if state(s, 3) != int(StateMD) || state(s, 2) != -1 {
			t.Fatalf("states = %v", s.States(0))
		}
	})
	t.Run("S2 downgraded by third reader", func(t *testing.T) {
		s := newSys(t, Adaptive)
		run(t, s, []trace.Access{
			acc(1, trace.Read, 0),
			acc(2, trace.Read, 0),
			acc(3, trace.Read, 0),
		})
		if state(s, 1) != int(StateS) || state(s, 2) != int(StateS) || state(s, 3) != int(StateS) {
			t.Fatalf("states = %v", s.States(0))
		}
	})
}

// TestAdaptiveHalvesBusTransactionsForMigratoryData is the bus-based analog
// of the directory halving claim.
func TestAdaptiveHalvesBusTransactionsForMigratoryData(t *testing.T) {
	mkTrace := func() []trace.Access {
		var accs []trace.Access
		for round := 0; round < 50; round++ {
			for n := memory.NodeID(1); n <= 4; n++ {
				accs = append(accs, acc(n, trace.Read, 0), acc(n, trace.Write, 0))
			}
		}
		return accs
	}
	mesi := newSys(t, MESI)
	adp := newSys(t, Adaptive)
	run(t, mesi, mkTrace())
	run(t, adp, mkTrace())
	m, a := mesi.Counts(), adp.Counts()
	// Conventional: each turn is a read miss plus an invalidation (2
	// transactions); adaptive steady state: one migratory read miss.
	if m.Total() < 2*a.Total()-8 {
		t.Fatalf("unexpectedly large adaptive cost: mesi %d vs adaptive %d", m.Total(), a.Total())
	}
	if a.Total() > m.Total()/2+8 {
		t.Fatalf("adaptive did not halve transactions: mesi %d vs adaptive %d", m.Total(), a.Total())
	}
	if a.Invalidation > 2 {
		t.Fatalf("adaptive still sends invalidations: %+v", a)
	}
}

// TestModel2CostModel checks the §4.3 second cost model arithmetic.
func TestModel2CostModel(t *testing.T) {
	c := Counts{ReadMiss: 10, WriteMiss: 5, Invalidation: 4, WriteBack: 3}
	if got := c.Total(); got != 22 {
		t.Fatalf("Total = %d", got)
	}
	if got := c.Model2(false); got != 2*15+4+3 {
		t.Fatalf("Model2(conv) = %d", got)
	}
	if got := c.Model2(true); got != 2*15+2*4+3 {
		t.Fatalf("Model2(adaptive) = %d", got)
	}
}

// TestSymmetryPenalizesReadShared reproduces the §5 observation: the
// Symmetry policy causes extra read misses for write-then-read-shared data.
func TestSymmetryPenalizesReadShared(t *testing.T) {
	mkTrace := func() []trace.Access {
		var accs []trace.Access
		for round := 0; round < 20; round++ {
			accs = append(accs, acc(0, trace.Write, 0))
			// Two read sweeps. Under MESI the second sweep hits in every
			// cache; under Symmetry the block keeps migrating away (it
			// stays dirty), so every second-sweep read misses too.
			for sweep := 0; sweep < 2; sweep++ {
				for n := memory.NodeID(1); n < 8; n++ {
					accs = append(accs, acc(n, trace.Read, 0))
				}
			}
		}
		return accs
	}
	mesi := newSys(t, MESI)
	sym := newSys(t, Symmetry)
	adp := newSys(t, Adaptive)
	run(t, mesi, mkTrace())
	run(t, sym, mkTrace())
	run(t, adp, mkTrace())
	if sym.Counts().ReadMiss <= mesi.Counts().ReadMiss {
		t.Fatalf("Symmetry read misses %d not worse than MESI %d",
			sym.Counts().ReadMiss, mesi.Counts().ReadMiss)
	}
	// The adaptive protocol must not inherit the Symmetry penalty.
	if adp.Counts().ReadMiss > mesi.Counts().ReadMiss+2 {
		t.Fatalf("adaptive read misses %d vs MESI %d", adp.Counts().ReadMiss, mesi.Counts().ReadMiss)
	}
}

// TestSymmetryOptimalForMigratory: for purely migratory data the Symmetry
// policy equals the adaptive protocol's steady state.
func TestSymmetryOptimalForMigratory(t *testing.T) {
	mkTrace := func() []trace.Access {
		var accs []trace.Access
		for round := 0; round < 30; round++ {
			for n := memory.NodeID(0); n < 4; n++ {
				accs = append(accs, acc(n, trace.Read, 0), acc(n, trace.Write, 0))
			}
		}
		return accs
	}
	sym := newSys(t, Symmetry)
	adp := newSys(t, Adaptive)
	run(t, sym, mkTrace())
	run(t, adp, mkTrace())
	diff := int64(sym.Counts().Total()) - int64(adp.Counts().Total())
	if diff > 4 || diff < -4 {
		t.Fatalf("Symmetry %d vs adaptive %d on migratory data", sym.Counts().Total(), adp.Counts().Total())
	}
}

// TestMigrateFirstInitialPolicy: under AdaptiveMigrateFirst the Exclusive
// state is dead and first touches go to MC/MD.
func TestMigrateFirstInitialPolicy(t *testing.T) {
	s := newSys(t, AdaptiveMigrateFirst)
	run(t, s, []trace.Access{acc(1, trace.Read, 0)})
	if state(s, 1) != int(StateMC) {
		t.Fatalf("states = %v", s.States(0))
	}
	run(t, s, []trace.Access{acc(1, trace.Write, 0)})
	if state(s, 1) != int(StateMD) {
		t.Fatalf("states = %v", s.States(0))
	}
	// Second block: first access a write.
	run(t, s, []trace.Access{acc(2, trace.Write, 16)})
	if s.States(1)[2] != int(StateMD) {
		t.Fatalf("write-first states = %v", s.States(1))
	}
	// Migratory behaviour needs no warm-up turn at all.
	before := s.Counts()
	run(t, s, []trace.Access{
		acc(2, trace.Read, 0), acc(2, trace.Write, 0),
		acc(3, trace.Read, 0), acc(3, trace.Write, 0),
	})
	d := s.Counts()
	if d.ReadMiss-before.ReadMiss != 2 || d.Invalidation != before.Invalidation {
		t.Fatalf("migrate-first turns: %+v -> %+v", before, d)
	}
}

// TestHysteresisDelaysClassification: with Hysteresis 2, one migration
// event is not enough.
func TestHysteresisDelaysClassification(t *testing.T) {
	mk := func(h int) *System {
		s, err := New(Config{
			Nodes: 16, Geometry: geom, Protocol: Adaptive,
			Hysteresis: h, CheckCoherence: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	script := []trace.Access{
		acc(1, trace.Write, 0), // D at 1
		acc(2, trace.Read, 0),  // S2/S
		acc(2, trace.Write, 0), // first event
	}
	s1, s2 := mk(1), mk(2)
	run(t, s1, script)
	run(t, s2, script)
	if state(s1, 2) != int(StateMD) {
		t.Fatalf("h=1 states = %v", s1.States(0))
	}
	if state(s2, 2) != int(StateD) {
		t.Fatalf("h=2 states = %v", s2.States(0))
	}
	// Second event classifies under h=2.
	more := []trace.Access{
		acc(3, trace.Read, 0),  // S2 at 2, S at 3
		acc(3, trace.Write, 0), // second event
	}
	run(t, s2, more)
	if state(s2, 3) != int(StateMD) {
		t.Fatalf("h=2 after second event: %v", s2.States(0))
	}
}

// TestWriteBackOnEviction: dirty victims produce write-back transactions;
// clean drops are silent.
func TestWriteBackOnEviction(t *testing.T) {
	s, err := New(Config{
		Nodes: 2, Geometry: geom, CacheBytes: 32, Assoc: 2,
		Protocol: Adaptive, CheckCoherence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run(t, s, []trace.Access{
		acc(0, trace.Write, 0), // D
		acc(0, trace.Read, 16), // E
		acc(0, trace.Read, 32), // evicts dirty block 0
		acc(0, trace.Read, 48), // evicts clean block 1
	})
	c := s.Counts()
	if c.WriteBack != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

// TestMESIBasics: the baseline behaves like textbook MESI.
func TestMESIBasics(t *testing.T) {
	s := newSys(t, MESI)
	run(t, s, []trace.Access{acc(1, trace.Read, 0)})
	if state(s, 1) != int(StateE) {
		t.Fatalf("states = %v", s.States(0))
	}
	run(t, s, []trace.Access{acc(2, trace.Read, 0)})
	if state(s, 1) != int(StateS) || state(s, 2) != int(StateS) {
		t.Fatalf("states = %v", s.States(0))
	}
	run(t, s, []trace.Access{acc(2, trace.Write, 0)})
	if state(s, 2) != int(StateD) || state(s, 1) != -1 {
		t.Fatalf("states = %v", s.States(0))
	}
	run(t, s, []trace.Access{acc(1, trace.Read, 0)})
	if state(s, 2) != int(StateS) || state(s, 1) != int(StateS) {
		t.Fatalf("states = %v", s.States(0))
	}
	if s.Migrations() != 0 {
		t.Fatal("MESI migrated")
	}
	read, write := s.Hits()
	if read != 0 || write != 0 {
		t.Fatalf("hits = %d %d", read, write)
	}
}

// TestCoherenceCheckCatchesStaleCopy re-inserts an invalidated block into a
// cache behind the protocol's back: the coherence check must report the
// stale copy on the next read, for finite and infinite caches alike.
func TestCoherenceCheckCatchesStaleCopy(t *testing.T) {
	for _, size := range []int{0, 4096} {
		s, err := New(Config{Nodes: 4, Geometry: geom, CacheBytes: size, Protocol: Adaptive, CheckCoherence: true})
		if err != nil {
			t.Fatal(err)
		}
		read := acc(0, trace.Read, 64)
		for _, a := range []trace.Access{read, acc(1, trace.Write, 64)} {
			if err := s.Access(a); err != nil {
				t.Fatalf("size %d: %v: %v", size, a, err)
			}
		}
		b := geom.Block(64)
		if s.caches[0].Peek(b) != nil {
			t.Fatalf("size %d: node 0 still holds block %d after node 1's write", size, b)
		}
		s.caches[0].Insert(b, StateS)
		if err := s.Access(read); err == nil || !strings.Contains(err.Error(), "stale read") {
			t.Fatalf("size %d: read of stale copy: err = %v, want stale read", size, err)
		}
	}
}
