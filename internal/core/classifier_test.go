package core

import (
	"strings"
	"testing"

	"migratory/internal/memory"
)

// block pairs a classifier with one block's state, so the Figure 3
// scenarios below read as the sequence of directory events they model.
type block struct {
	State
	c Classifier
}

func newBlock(p Policy) *block {
	c := NewClassifier(p)
	return &block{State: c.NewState(), c: c}
}

func (b *block) ReadMiss(dirty bool) bool { return b.c.ReadMiss(&b.State, dirty) }
func (b *block) WriteMiss(n memory.NodeID, hadCopies, dirty bool) {
	b.c.WriteMiss(&b.State, n, hadCopies, dirty)
}
func (b *block) WriteHit(n memory.NodeID, invalidatedOthers bool) {
	b.c.WriteHit(&b.State, n, invalidatedOthers)
}
func (b *block) BecameUncached() { b.c.BecameUncached(&b.State) }

func TestNewClassifierInitialState(t *testing.T) {
	for _, p := range Policies() {
		c := newBlock(p)
		if c.Count != Uncached {
			t.Errorf("%s: initial count %v", p.Name, c.Count)
		}
		if c.Migratory != p.InitialMigratory {
			t.Errorf("%s: initial migratory = %v", p.Name, c.Migratory)
		}
		if c.LastInvalidator != memory.NoNode {
			t.Errorf("%s: initial last invalidator = %v", p.Name, c.LastInvalidator)
		}
	}
}

func TestNewClassifierPanicsOnInvalidPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewClassifier(Policy{Name: "bad", Adaptive: true})
}

// TestFigure3ReadMissStateTransitions checks every case arm of Figure 3's
// read-miss switch.
func TestFigure3ReadMissStateTransitions(t *testing.T) {
	t.Run("UNCACHED to ONE COPY", func(t *testing.T) {
		c := newBlock(Basic)
		if mig := c.ReadMiss(false); mig {
			t.Fatal("non-migratory uncached block migrated")
		}
		if c.Count != OneCopy {
			t.Fatalf("count = %v", c.Count)
		}
	})
	t.Run("UNCACHED/MIGRATORY to ONE COPY/MIGRATORY migrates", func(t *testing.T) {
		c := newBlock(Aggressive)
		if mig := c.ReadMiss(false); !mig {
			t.Fatal("aggressive first read did not migrate")
		}
		if c.Count != OneCopy || !c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("ONE COPY to TWO COPIES", func(t *testing.T) {
		c := newBlock(Basic)
		c.ReadMiss(false)
		if mig := c.ReadMiss(true); mig {
			t.Fatal("replicate policy migrated")
		}
		if c.Count != TwoCopies {
			t.Fatalf("count = %v", c.Count)
		}
	})
	t.Run("ONE COPY/MIGRATORY dirty migrates and stays", func(t *testing.T) {
		c := newBlock(Aggressive)
		c.ReadMiss(false) // -> ONE COPY/MIGRATORY
		if mig := c.ReadMiss(true); !mig {
			t.Fatal("dirty migratory block did not migrate")
		}
		if c.Count != OneCopy || !c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("ONE COPY/MIGRATORY clean declassifies and replicates", func(t *testing.T) {
		c := newBlock(Aggressive)
		c.ReadMiss(false)
		if mig := c.ReadMiss(false); mig {
			t.Fatal("clean migratory block migrated")
		}
		if c.Count != TwoCopies || c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
		if c.Evidence != 0 {
			t.Fatalf("evidence = %d; declassification must reset it", c.Evidence)
		}
	})
	t.Run("TWO COPIES to THREE OR MORE and saturate", func(t *testing.T) {
		c := newBlock(Basic)
		for i := 0; i < 5; i++ {
			if mig := c.ReadMiss(false); mig {
				t.Fatal("replicating block migrated")
			}
		}
		if c.Count != ThreeOrMore {
			t.Fatalf("count = %v", c.Count)
		}
	})
}

// TestFigure3WriteHitTwoCopies follows the exact scenario of §2: block dirty
// at Pi, read by Pj, then written by Pj. Basic classifies immediately;
// conservative needs the pattern twice.
func TestFigure3WriteHitTwoCopies(t *testing.T) {
	t.Run("basic classifies after one event", func(t *testing.T) {
		c := newBlock(Basic)
		c.WriteMiss(1, false, false) // Pi writes: ONE COPY, last=1
		c.ReadMiss(true)             // Pj reads dirty block: TWO COPIES
		c.WriteHit(2, true)          // Pj invalidates Pi's copy
		if !c.Migratory || c.Count != OneCopy {
			t.Fatalf("state = %v", c.String())
		}
		if c.LastInvalidator != 2 {
			t.Fatalf("last invalidator = %d", c.LastInvalidator)
		}
	})
	t.Run("conservative needs two events", func(t *testing.T) {
		c := newBlock(Conservative)
		c.WriteMiss(1, false, false)
		c.ReadMiss(true)
		c.WriteHit(2, true)
		if c.Migratory {
			t.Fatalf("conservative classified after one event: %v", c.String())
		}
		if c.Evidence != 1 {
			t.Fatalf("evidence = %d", c.Evidence)
		}
		// Second migration: P3 reads then writes.
		c.ReadMiss(true)
		c.WriteHit(3, true)
		if !c.Migratory {
			t.Fatalf("conservative did not classify after two events: %v", c.String())
		}
	})
	t.Run("same invalidator is not evidence", func(t *testing.T) {
		c := newBlock(Basic)
		c.WriteMiss(1, false, false)
		c.ReadMiss(true)    // node 2 reads -> TWO COPIES
		c.WriteHit(1, true) // node 1 writes again, invalidating node 2
		if c.Migratory {
			t.Fatalf("same-node invalidation classified migratory: %v", c.String())
		}
		if c.Count != OneCopy {
			t.Fatalf("count = %v", c.Count)
		}
	})
	t.Run("three copies is not evidence", func(t *testing.T) {
		c := newBlock(Basic)
		c.WriteMiss(1, false, false)
		c.ReadMiss(true)  // 2 copies
		c.ReadMiss(false) // 3 copies
		c.WriteHit(2, true)
		if c.Migratory {
			t.Fatalf("read-shared block classified migratory: %v", c.String())
		}
		if c.Count != OneCopy || c.Evidence != 0 {
			t.Fatalf("state = %v", c.String())
		}
	})
}

// TestFigure3WriteMiss covers the write-miss handler branches.
func TestFigure3WriteMiss(t *testing.T) {
	t.Run("uncached write miss keeps retained classification", func(t *testing.T) {
		c := newBlock(Aggressive)
		c.WriteMiss(4, false, false)
		if c.Count != OneCopy || !c.Migratory || c.LastInvalidator != 4 {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("write miss on single copy by new node is evidence", func(t *testing.T) {
		c := newBlock(Basic)
		c.WriteMiss(1, false, false) // ONE COPY, last=1
		c.WriteMiss(2, true, true)   // node 2 write-misses, invalidating node 1
		if !c.Migratory || c.Count != OneCopy || c.LastInvalidator != 2 {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("write miss by last invalidator is not evidence", func(t *testing.T) {
		c := newBlock(Basic)
		c.WriteMiss(1, false, false)
		// Node 1's copy is evicted elsewhere; node 1 write-misses again
		// while some other copy exists. Same invalidator: no evidence.
		c.WriteMiss(1, true, true)
		if c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("write miss on clean migratory block declassifies", func(t *testing.T) {
		c := newBlock(Aggressive)
		c.ReadMiss(false) // ONE COPY/MIGRATORY, clean
		c.WriteMiss(2, true, false)
		if c.Migratory || c.Count != OneCopy {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("write miss on dirty migratory block stays migratory", func(t *testing.T) {
		c := newBlock(Aggressive)
		c.ReadMiss(false)
		c.WriteMiss(2, true, true)
		if !c.Migratory || c.Count != OneCopy {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("write miss with multiple copies resets to one copy", func(t *testing.T) {
		c := newBlock(Basic)
		c.ReadMiss(false)
		c.ReadMiss(false)
		c.ReadMiss(false) // THREE OR MORE
		c.WriteMiss(5, true, false)
		if c.Count != OneCopy || c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
}

// TestFigure3WriteHitExclusive covers the "write hit on a clean,
// exclusively-held block" handler, including the uncached-interval
// detection the paper highlights for small caches.
func TestFigure3WriteHitExclusive(t *testing.T) {
	t.Run("migratory pattern spanning uncached interval", func(t *testing.T) {
		c := newBlock(Basic)
		// Node 1 reads and writes; block then leaves all caches; node 2
		// reads it back and writes. The directory sees: read miss, upgrade
		// by 1, uncached, read miss, upgrade by 2.
		c.ReadMiss(false)
		c.WriteHit(1, false)
		if c.Migratory {
			t.Fatalf("classified with no invalidator history: %v", c.String())
		}
		c.BecameUncached()
		c.ReadMiss(false)
		c.WriteHit(2, false)
		if !c.Migratory {
			t.Fatalf("uncached-interval migration not detected: %v", c.String())
		}
	})
	t.Run("same node upgrading repeatedly is not evidence", func(t *testing.T) {
		c := newBlock(Basic)
		c.ReadMiss(false)
		c.WriteHit(1, false)
		c.BecameUncached()
		c.ReadMiss(false)
		c.WriteHit(1, false)
		if c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("upgrade after silent drops resets count", func(t *testing.T) {
		c := newBlock(Basic)
		c.ReadMiss(false)
		c.ReadMiss(false)
		c.ReadMiss(false) // THREE OR MORE created
		// All other copies silently dropped; sole holder upgrades.
		c.WriteHit(2, false)
		if c.Count != OneCopy || c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
		if c.LastInvalidator != 2 {
			t.Fatalf("last invalidator = %d", c.LastInvalidator)
		}
	})
}

func TestConventionalNeverClassifies(t *testing.T) {
	c := newBlock(Conventional)
	// Run a strongly migratory sequence: the conventional protocol must
	// never migrate.
	for n := memory.NodeID(0); n < 10; n++ {
		if mig := c.ReadMiss(true); mig {
			t.Fatal("conventional migrated")
		}
		c.WriteHit(n, true)
		if c.Migratory {
			t.Fatal("conventional classified migratory")
		}
	}
}

func TestRetentionAcrossUncachedIntervals(t *testing.T) {
	classify := func(c *block) {
		c.WriteMiss(1, false, false)
		c.ReadMiss(true)
		c.WriteHit(2, true)
	}
	t.Run("retaining policy keeps classification", func(t *testing.T) {
		c := newBlock(Basic)
		classify(c)
		if !c.Migratory {
			t.Fatal("setup failed")
		}
		c.BecameUncached()
		if !c.Migratory || c.Count != Uncached || c.LastInvalidator != 2 {
			t.Fatalf("state = %v", c.String())
		}
		// The reload of a retained-migratory block migrates immediately.
		if mig := c.ReadMiss(false); !mig {
			t.Fatal("reload of retained migratory block did not migrate")
		}
	})
	t.Run("non-retaining ablation forgets", func(t *testing.T) {
		p := Policy{Name: "basic-forgetful", Adaptive: true, Hysteresis: 1}
		c := newBlock(p)
		classify(c)
		if !c.Migratory {
			t.Fatal("setup failed")
		}
		c.BecameUncached()
		if c.Migratory || c.LastInvalidator != memory.NoNode || c.Evidence != 0 {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("non-retaining aggressive resets to migratory", func(t *testing.T) {
		p := Policy{Name: "aggressive-forgetful", Adaptive: true, Hysteresis: 1, InitialMigratory: true}
		c := newBlock(p)
		c.ReadMiss(false)
		c.ReadMiss(false) // declassified
		if c.Migratory {
			t.Fatal("setup failed")
		}
		c.BecameUncached()
		if !c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
}

func TestConservativeHysteresisResetByReplication(t *testing.T) {
	c := newBlock(Conservative)
	c.WriteMiss(1, false, false)
	c.ReadMiss(true)
	c.WriteHit(2, true) // evidence 1
	if c.Evidence != 1 {
		t.Fatalf("evidence = %d", c.Evidence)
	}
	// A replication (read-shared episode) intervenes: evidence resets, so
	// the events are no longer "successive".
	c.ReadMiss(true)
	c.ReadMiss(false)
	if c.Evidence != 0 {
		t.Fatalf("evidence after replication = %d", c.Evidence)
	}
}

func TestMigratorySteadyStateNeverTalksToDirectoryOnWrite(t *testing.T) {
	// Once migratory, the cycle is pure read-miss migrations: each ReadMiss
	// with dirty=true returns migrate and the classification is stable.
	c := newBlock(Basic)
	c.WriteMiss(1, false, false)
	c.ReadMiss(true)
	c.WriteHit(2, true)
	for i := 0; i < 20; i++ {
		if mig := c.ReadMiss(true); !mig {
			t.Fatalf("iteration %d: migratory block replicated", i)
		}
	}
	if !c.Migratory || c.Count != OneCopy {
		t.Fatalf("state = %v", c.String())
	}
}

func TestHysteresisDepthThree(t *testing.T) {
	p := Policy{Name: "hyst3", Adaptive: true, Hysteresis: 3, RetainWhenUncached: true}
	c := newBlock(p)
	c.WriteMiss(0, false, false)
	for i := 1; i <= 3; i++ {
		c.ReadMiss(true)
		c.WriteHit(memory.NodeID(i), true)
		want := i >= 3
		if c.Migratory != want {
			t.Fatalf("after event %d: migratory = %v", i, c.Migratory)
		}
	}
}

func TestCopyCountString(t *testing.T) {
	want := map[CopyCount]string{
		Uncached:      "UNCACHED",
		OneCopy:       "ONE COPY",
		TwoCopies:     "TWO COPIES",
		ThreeOrMore:   "THREE OR MORE COPIES",
		CopyCount(42): "CopyCount(42)",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q; want %q", uint8(c), c.String(), s)
		}
	}
}

func TestClassifierString(t *testing.T) {
	c := newBlock(Conservative)
	c.WriteMiss(1, false, false)
	c.ReadMiss(true)
	c.WriteHit(3, true)
	s := c.String()
	for _, want := range []string{"ONE COPY", "last=3", "evidence=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	m := newBlock(Aggressive)
	if got := m.String(); !strings.Contains(got, "UNCACHED/MIGRATORY") {
		t.Errorf("aggressive initial String() = %q", got)
	}
}
