package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"migratory/internal/memory"
)

// applyRandomEvent drives one random directory event into the classifier,
// mirroring the call discipline of the directory engine (which only calls
// BecameUncached when the copy count reaches zero, etc. — here we are
// stricter and allow any order, since the classifier must tolerate every
// sequence the engine can produce and then some).
func applyRandomEvent(c *block, rng *rand.Rand) {
	n := memory.NodeID(rng.Intn(8))
	switch rng.Intn(5) {
	case 0:
		c.ReadMiss(rng.Intn(2) == 0)
	case 1:
		c.WriteMiss(n, rng.Intn(2) == 0, rng.Intn(2) == 0)
	case 2:
		c.WriteHit(n, true)
	case 3:
		c.WriteHit(n, false)
	case 4:
		c.BecameUncached()
	}
}

func validState(c *block) bool {
	if c.Count > ThreeOrMore {
		return false
	}
	if int(c.Evidence) > c.c.Policy().Hysteresis {
		return false
	}
	// A non-adaptive policy must never classify.
	if !c.c.Policy().Adaptive && c.Migratory {
		return false
	}
	// Migratory blocks are only meaningful with at most one copy created:
	// the classifier must never be simultaneously migratory and counting
	// two-plus created copies (classification always collapses the count).
	if c.Migratory && c.Count > OneCopy {
		return false
	}
	return true
}

// TestClassifierStateSpaceProperty: under arbitrary event sequences the
// classifier stays within its legal state space for every policy.
func TestClassifierStateSpaceProperty(t *testing.T) {
	policies := append(Policies(), Stenstrom,
		Policy{Name: "forgetful", Adaptive: true, Hysteresis: 2},
		Policy{Name: "hyst5", Adaptive: true, Hysteresis: 5, RetainWhenUncached: true, InitialMigratory: true},
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, p := range policies {
			c := newBlock(p)
			for i := 0; i < 400; i++ {
				applyRandomEvent(c, rng)
				if !validState(c) {
					t.Logf("policy %s invalid after %d events: %v", p.Name, i, c.String())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestClassifierMigrateImpliesSingleCopy: ReadMiss only ever reports a
// migration when the resulting state is exactly one migratory copy.
func TestClassifierMigrateImpliesSingleCopyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newBlock(Aggressive)
		for i := 0; i < 400; i++ {
			if rng.Intn(3) == 0 {
				if c.ReadMiss(rng.Intn(2) == 0) && (c.Count != OneCopy || !c.Migratory) {
					return false
				}
			} else {
				applyRandomEvent(c, rng)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestConventionalNeverMigratesProperty: the baseline never migrates, under
// any event sequence.
func TestConventionalNeverMigratesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newBlock(Conventional)
		for i := 0; i < 300; i++ {
			if rng.Intn(3) == 0 {
				if c.ReadMiss(rng.Intn(2) == 0) {
					return false
				}
			} else {
				applyRandomEvent(c, rng)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStenstromClassifierBranches covers the DeclassifyOnWriteMiss axis at
// the classifier level.
func TestStenstromClassifierBranches(t *testing.T) {
	mk := func() *block {
		c := newBlock(Stenstrom)
		c.WriteMiss(1, false, false)
		c.ReadMiss(true)
		c.WriteHit(2, true) // classified (basic rule)
		if !c.Migratory {
			t.Fatal("setup failed")
		}
		return c
	}
	t.Run("write miss to dirty migratory declassifies", func(t *testing.T) {
		c := mk()
		c.WriteMiss(3, true, true)
		if c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("read miss migration keeps classification", func(t *testing.T) {
		c := mk()
		if !c.ReadMiss(true) || !c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
	t.Run("basic keeps classification on the same event", func(t *testing.T) {
		c := newBlock(Basic)
		c.WriteMiss(1, false, false)
		c.ReadMiss(true)
		c.WriteHit(2, true)
		c.WriteMiss(3, true, true)
		if !c.Migratory {
			t.Fatalf("state = %v", c.String())
		}
	})
}
