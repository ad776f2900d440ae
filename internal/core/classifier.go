package core

import (
	"fmt"

	"migratory/internal/memory"
)

// CopyCount is the directory's count of copies created since the block was
// last held exclusively (or uncached). Following the paper (§2.2), it
// deliberately counts copies *created*, not copies currently existing, so
// that silent drops of clean copies cannot make a three-copy history look
// like migratory two-copy behaviour.
type CopyCount uint8

const (
	// Uncached: no copies exist.
	Uncached CopyCount = iota
	// OneCopy: one copy has been created since the last exclusive interval.
	OneCopy
	// TwoCopies: two copies have been created.
	TwoCopies
	// ThreeOrMore: three or more copies have been created.
	ThreeOrMore
)

// String names the count, including the /MIGRATORY qualifier convention
// used by Figure 3 when rendered by State.String.
func (c CopyCount) String() string {
	switch c {
	case Uncached:
		return "UNCACHED"
	case OneCopy:
		return "ONE COPY"
	case TwoCopies:
		return "TWO COPIES"
	case ThreeOrMore:
		return "THREE OR MORE COPIES"
	default:
		return fmt.Sprintf("CopyCount(%d)", uint8(c))
	}
}

// State is the adaptive portion of one block's directory entry: the
// copies-created state, the migratory classification, the identity of the
// last invalidator, and the hysteresis evidence counter (the generalized
// "one migration" flag of Figure 3). It is as small as the bits it models
// and holds no pointers, so a directory's table of entries is never scanned
// by the garbage collector. Its transitions are driven by a Classifier.
type State struct {
	// Count is the copies-created state.
	Count CopyCount
	// Migratory is the current classification.
	Migratory bool
	// LastInvalidator is the node that most recently obtained exclusive
	// write access, or memory.NoNode.
	LastInvalidator memory.NodeID
	// Evidence counts successive migratory events toward Hysteresis.
	// Policy.Validate bounds Hysteresis to what it can hold.
	Evidence uint16
}

// Classifier runs one policy's Figure 3 handlers over per-block States. An
// engine holds one Classifier and one State per block.
//
// The Classifier is a passive decision engine: the directory engine tells
// it what happened to a block (read miss, write miss, write hit, block
// uncached) and asks whether to migrate or replicate. It holds no copy set
// and sends no messages.
type Classifier struct {
	policy Policy

	// Observe, when non-nil, is called synchronously after every change to
	// a State's Evidence or Migratory, with the state after the change. It
	// exists for observability layers; the classifier's decisions never
	// depend on it. The caller knows which block's State it passed in, so
	// the hook needs no per-block closure.
	Observe func(Change)

	// table, when non-nil, drives transitions through the precomputed dense
	// lookup table instead of the reference switch logic. The two are
	// verified bit-identical (TestTableMatchesReference); only policies with
	// a hysteresis too large to tabulate fall back to the switches.
	table *transitionTable
}

// Change describes one observable update to a block's adaptive state: the
// Evidence counter and Migratory classification after the change, and
// whether the classification itself flipped.
type Change struct {
	// Evidence is the hysteresis counter after the change.
	Evidence int
	// Migratory is the classification after the change.
	Migratory bool
	// Flipped reports whether Migratory differs from before the change.
	Flipped bool
}

// NewClassifier returns the classifier for the given policy. The policy
// must be valid.
func NewClassifier(p Policy) Classifier {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return Classifier{policy: p, table: tableFor(p)}
}

// NewState returns the state of a freshly allocated block under the
// classifier's policy.
func (c *Classifier) NewState() State {
	return State{
		Count:           Uncached,
		Migratory:       c.policy.Adaptive && c.policy.InitialMigratory,
		LastInvalidator: memory.NoNode,
	}
}

// Policy returns the policy this classifier runs.
func (c *Classifier) Policy() Policy { return c.policy }

// record notes one piece of evidence that the block is migratory and
// classifies it once Hysteresis successive events have been seen. The
// counter saturates at the threshold: it models a one-or-two-bit hardware
// field, and larger values carry no information.
func (c *Classifier) record(s *State) {
	if !c.policy.Adaptive {
		return
	}
	changed := false
	if int(s.Evidence) < c.policy.Hysteresis {
		s.Evidence++
		changed = true
	}
	flipped := false
	if int(s.Evidence) >= c.policy.Hysteresis && !s.Migratory {
		s.Migratory = true
		changed, flipped = true, true
	}
	if changed && c.Observe != nil {
		c.Observe(Change{Evidence: int(s.Evidence), Migratory: s.Migratory, Flipped: flipped})
	}
}

// declassify marks the block non-migratory and clears the evidence counter
// (Figure 3 sets "one migration <- FALSE" whenever it declassifies or
// replicates).
func (c *Classifier) declassify(s *State) {
	changed := s.Migratory || s.Evidence != 0
	flipped := s.Migratory
	s.Migratory = false
	s.Evidence = 0
	if changed && c.Observe != nil {
		c.Observe(Change{Flipped: flipped})
	}
}

// resetEvidence clears the evidence counter without touching the
// classification, notifying the observer only on an actual change.
func (c *Classifier) resetEvidence(s *State) {
	if s.Evidence == 0 {
		return
	}
	s.Evidence = 0
	if c.Observe != nil {
		c.Observe(Change{Migratory: s.Migratory})
	}
}

// ReadMiss applies Figure 3's read-miss handler. dirty reports whether the
// block has been modified by its current (sole) holder; it is only
// meaningful when Count is OneCopy. The return value is true when the
// protocol should *migrate* the block (hand the requester an exclusive,
// writable copy, invalidating any existing copy in the same transaction)
// and false when it should *replicate* (hand out a read-only copy).
func (c *Classifier) ReadMiss(s *State, dirty bool) (migrate bool) {
	if t := c.table; t != nil {
		ev := evReadMissClean
		if dirty {
			ev = evReadMissDirty
		}
		return c.apply(s, t.lookup(s.index(), ev))
	}
	return c.readMissRef(s, dirty)
}

// readMissRef is the reference switch implementation of ReadMiss, kept as
// the source of truth the transition table is built from and verified
// against.
func (c *Classifier) readMissRef(s *State, dirty bool) (migrate bool) {
	switch s.Count {
	case Uncached:
		s.Count = OneCopy
	case OneCopy:
		if s.Migratory {
			if !dirty {
				// The block moved without being modified: evidence that it
				// is not currently migratory.
				s.Count = TwoCopies
				c.declassify(s)
			}
			// Otherwise the block stays ONE COPY/MIGRATORY: the old copy is
			// invalidated as part of the migration, so exactly one copy
			// continues to exist.
		} else {
			s.Count = TwoCopies
		}
	case TwoCopies:
		s.Count = ThreeOrMore
	case ThreeOrMore:
		// null statement
	}
	if s.Count == OneCopy && s.Migratory {
		return true
	}
	// Figure 3 clears "one migration" when replicating. Taken literally on
	// every replication that would make the conservative protocol unable to
	// classify anything: the two-event migratory pattern necessarily
	// contains a read miss between the write events (the paper says a block
	// must "migrate twice under the conventional copy-on-read-miss policy",
	// and each such migration is a read miss followed by an invalidation).
	// We therefore clear the evidence only when replication demonstrates
	// read-sharing — the copy that was just created is at least the third.
	if s.Count == ThreeOrMore {
		c.resetEvidence(s)
	}
	return false
}

// WriteMiss applies Figure 3's write-miss handler. hadCopies reports
// whether any cached copies existed (Figure 3 titles the handler "write
// miss invalidating one or more copies"; a write miss to an uncached block
// skips the classification tests). dirty is as for ReadMiss. After a write
// miss the requester always holds the sole, writable copy.
func (c *Classifier) WriteMiss(s *State, requester memory.NodeID, hadCopies bool, dirty bool) {
	if t := c.table; t != nil {
		bits := 0
		if s.LastInvalidator != memory.NoNode && s.LastInvalidator != requester {
			bits |= 1
		}
		if dirty {
			bits |= 2
		}
		if hadCopies {
			bits |= 4
		}
		c.apply(s, t.lookup(s.index(), evWriteMiss+bits))
		s.LastInvalidator = requester
		return
	}
	c.writeMissRef(s, requester, hadCopies, dirty)
}

// writeMissRef is the reference switch implementation of WriteMiss.
func (c *Classifier) writeMissRef(s *State, requester memory.NodeID, hadCopies bool, dirty bool) {
	switch {
	case !hadCopies:
		// Uncached: no evidence either way; the classification (including
		// an initial or retained "migratory") carries over.
		s.Count = OneCopy
	case s.Count == OneCopy && s.Migratory:
		if !dirty || c.policy.DeclassifyOnWriteMiss {
			c.declassify(s)
		}
		s.Count = OneCopy
	case s.LastInvalidator != memory.NoNode && s.LastInvalidator != requester && s.Count == OneCopy:
		c.record(s)
		s.Count = OneCopy
	default:
		// Figure 3's bare "else state <- ONE COPY". Note that, verbatim,
		// this branch does not clear the evidence counter; we follow the
		// pseudo-code exactly (the write-hit handler's else branch does
		// clear it).
		s.Count = OneCopy
	}
	s.LastInvalidator = requester
}

// WriteHit applies Figure 3's two write-hit handlers. invalidatedOthers
// selects between them: true for "write hit invalidating one or more
// copies" (the requester held a shared copy alongside others), false for a
// write hit on a block of which the requester holds the only cached copy
// ("write hit on a clean, exclusively-held block"). After the call the
// requester holds the sole, writable copy.
func (c *Classifier) WriteHit(s *State, requester memory.NodeID, invalidatedOthers bool) {
	if t := c.table; t != nil {
		bits := 0
		if s.LastInvalidator != memory.NoNode && s.LastInvalidator != requester {
			bits |= 1
		}
		if invalidatedOthers {
			bits |= 2
		}
		c.apply(s, t.lookup(s.index(), evWriteHit+bits))
		s.LastInvalidator = requester
		return
	}
	c.writeHitRef(s, requester, invalidatedOthers)
}

// writeHitRef is the reference switch implementation of WriteHit.
func (c *Classifier) writeHitRef(s *State, requester memory.NodeID, invalidatedOthers bool) {
	if invalidatedOthers {
		if s.LastInvalidator != memory.NoNode && s.LastInvalidator != requester && s.Count == TwoCopies {
			c.record(s)
		} else {
			c.declassify(s)
		}
		s.Count = OneCopy
		s.LastInvalidator = requester
		return
	}
	// Clean, exclusively-held upgrade. This handler fires only for blocks
	// managed by the replicate policy (a migratory holder already has write
	// permission and never contacts the directory), so seeing it with
	// Count == OneCopy and a different last invalidator means the block
	// migrated through memory: evidence of migratory behaviour spanning an
	// uncached interval (§2.2).
	if s.LastInvalidator != memory.NoNode && s.LastInvalidator != requester && s.Count == OneCopy {
		c.record(s)
	} else if s.Count != OneCopy {
		// Completion of the pseudo-code for a case it leaves implicit: the
		// copies-created count exceeded one (silent drops shrank the copy
		// set) but the requester now holds the block exclusively dirty.
		s.Count = OneCopy
		c.declassify(s)
	}
	s.LastInvalidator = requester
}

// BecameUncached records that the last cached copy of the block was dropped
// or written back. Policies that retain classification keep everything but
// the copy count; otherwise the entry resets as if never seen.
func (c *Classifier) BecameUncached(s *State) {
	if t := c.table; t != nil {
		e := t.lookup(s.index(), evBecameUncached)
		c.apply(s, e)
		if e.flags&flagClearLast != 0 {
			s.LastInvalidator = memory.NoNode
		}
		return
	}
	c.becameUncachedRef(s)
}

// becameUncachedRef is the reference switch implementation of BecameUncached.
func (c *Classifier) becameUncachedRef(s *State) {
	s.Count = Uncached
	if !c.policy.RetainWhenUncached {
		initial := c.policy.Adaptive && c.policy.InitialMigratory
		flipped := s.Migratory != initial
		changed := flipped || s.Evidence != 0
		s.Migratory = initial
		s.Evidence = 0
		s.LastInvalidator = memory.NoNode
		if changed && c.Observe != nil {
			c.Observe(Change{Migratory: s.Migratory, Flipped: flipped})
		}
	}
}

// String renders the entry in Figure 3's notation, e.g.
// "ONE COPY/MIGRATORY last=3 evidence=1".
func (s State) String() string {
	out := s.Count.String()
	if s.Migratory {
		out += "/MIGRATORY"
	}
	if s.LastInvalidator != memory.NoNode {
		out += fmt.Sprintf(" last=%d", s.LastInvalidator)
	}
	if s.Evidence > 0 {
		out += fmt.Sprintf(" evidence=%d", s.Evidence)
	}
	return out
}
