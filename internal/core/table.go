package core

// The per-access kernel of every simulator funnels through the classifier's
// four event handlers. This file replaces their branchy switch logic with a
// dense precomputed transition table
//
//	[state][event] -> {next state, action bitmask}
//
// where a state packs (Evidence, Count, Migratory) and an event packs the
// handler plus its boolean arguments (dirty, hadCopies, "last invalidator
// differs from the requester", invalidatedOthers). The table is built once
// per policy shape by running the reference switch implementations over
// every state x event pair, so it is bit-identical to the switches by
// construction; TestTableMatchesReference re-verifies the equivalence
// exhaustively, including the Observe notifications.
//
// LastInvalidator stays outside the tabulated state: the transitions only
// ever consult whether it differs from the requester, which is folded into
// the event index, and every write handler then overwrites it with the
// requester.

import (
	"fmt"
	"sync"

	"migratory/internal/memory"
)

// Event indices. Bit 0 of the write-miss and write-hit groups is "the last
// invalidator is some node other than the requester".
const (
	evReadMissClean  = 0               // ReadMiss(dirty=false)
	evReadMissDirty  = 1               // ReadMiss(dirty=true)
	evWriteMiss      = 2               // +1 lastDiffers, +2 dirty, +4 hadCopies
	evWriteHit       = evWriteMiss + 8 // +1 lastDiffers, +2 invalidatedOthers
	evBecameUncached = evWriteHit + 4  //
	numEvents        = evBecameUncached + 1
)

// Action flags of a table entry.
const (
	// flagMigrate is ReadMiss's migrate-don't-replicate return value.
	flagMigrate uint8 = 1 << iota
	// flagNotify fires the Observe callback after applying the entry.
	flagNotify
	// flagFlipped is the Change.Flipped value of the notification.
	flagFlipped
	// flagClearLast resets LastInvalidator to NoNode (BecameUncached under
	// a policy that does not retain classification).
	flagClearLast
)

// tableEntry is one precomputed transition: the successor state, unpacked
// so applying it is three stores, plus the action bitmask.
type tableEntry struct {
	count    CopyCount
	mig      bool
	evidence uint8
	flags    uint8
}

// transitionTable is the dense [state][event] relation for one policy
// shape. States are indexed Evidence*8 + Count*2 + Migratory.
type transitionTable struct {
	entries []tableEntry
}

func (t *transitionTable) lookup(state, event int) tableEntry {
	return t.entries[state*numEvents+event]
}

// index packs the state's tabulated part. The exported fields remain the
// canonical representation; the index is recomputed per event, which keeps
// external field writes (tests, zero values) coherent.
func (s *State) index() int {
	i := int(s.Evidence)<<3 | int(s.Count)<<1
	if s.Migratory {
		i |= 1
	}
	return i
}

// apply installs a transition's successor state into s and fires the
// Observe notification the reference implementation would have fired. It
// returns the migrate decision for ReadMiss's benefit.
func (c *Classifier) apply(s *State, e tableEntry) bool {
	s.Count = e.count
	s.Migratory = e.mig
	s.Evidence = uint16(e.evidence)
	if e.flags&flagNotify != 0 && c.Observe != nil {
		c.Observe(Change{Evidence: int(e.evidence), Migratory: e.mig, Flipped: e.flags&flagFlipped != 0})
	}
	return e.flags&flagMigrate != 0
}

// maxTableHysteresis bounds the table size (the state space grows linearly
// with the hysteresis threshold) and is the largest evidence a tableEntry's
// byte holds. Policies beyond it — far past anything a one-or-two-bit
// hardware counter models — fall back to the reference switches.
const maxTableHysteresis = 255

// policyShape is the behavior-relevant projection of a Policy: two policies
// differing only in Name share a table.
type policyShape struct {
	adaptive              bool
	initialMigratory      bool
	hysteresis            int
	retainWhenUncached    bool
	declassifyOnWriteMiss bool
}

var (
	tableMu sync.Mutex
	tables  = make(map[policyShape]*transitionTable)
)

// DisableTables, when true, makes subsequently built classifiers run the
// reference switch implementations instead of the precomputed tables. It
// exists so benchmarks can price the table kernel against the switches
// (BenchmarkBatchedTable2) and is not safe to flip while classifiers are
// being constructed concurrently.
var DisableTables bool

// tableFor returns the (cached) transition table for the policy, or nil
// when the policy cannot be tabulated.
func tableFor(p Policy) *transitionTable {
	if DisableTables || p.Hysteresis > maxTableHysteresis {
		return nil
	}
	shape := policyShape{
		adaptive:              p.Adaptive,
		initialMigratory:      p.InitialMigratory,
		hysteresis:            p.Hysteresis,
		retainWhenUncached:    p.RetainWhenUncached,
		declassifyOnWriteMiss: p.DeclassifyOnWriteMiss,
	}
	tableMu.Lock()
	defer tableMu.Unlock()
	if t, ok := tables[shape]; ok {
		return t
	}
	t := buildTable(p)
	tables[shape] = t
	return t
}

// buildTable enumerates every state x event pair through the reference
// switch implementations.
func buildTable(p Policy) *transitionTable {
	h := p.Hysteresis
	if h < 0 {
		h = 0
	}
	states := (h + 1) * 8
	t := &transitionTable{entries: make([]tableEntry, states*numEvents)}
	for evidence := 0; evidence <= h; evidence++ {
		for count := Uncached; count <= ThreeOrMore; count++ {
			for _, mig := range [2]bool{false, true} {
				st := State{Count: count, Migratory: mig, Evidence: uint16(evidence)}
				si := st.index()
				for event := 0; event < numEvents; event++ {
					t.entries[si*numEvents+event] = buildEntry(p, count, mig, evidence, event)
				}
			}
		}
	}
	return t
}

// buildEntry runs one (state, event) pair through the reference switches
// and records the successor and actions.
func buildEntry(p Policy, count CopyCount, mig bool, evidence, event int) tableEntry {
	const requester = memory.NodeID(0)
	const other = memory.NodeID(1)
	c := Classifier{policy: p}
	s := State{Count: count, Migratory: mig, Evidence: uint16(evidence), LastInvalidator: memory.NoNode}
	var notified bool
	var change Change
	c.Observe = func(ch Change) {
		if notified {
			panic("core: reference transition notified twice")
		}
		notified = true
		change = ch
	}
	var flags uint8
	switch {
	case event == evReadMissClean || event == evReadMissDirty:
		if c.readMissRef(&s, event == evReadMissDirty) {
			flags |= flagMigrate
		}
	case event >= evWriteMiss && event < evWriteMiss+8:
		bits := event - evWriteMiss
		if bits&1 != 0 {
			s.LastInvalidator = other
		}
		c.writeMissRef(&s, requester, bits&4 != 0, bits&2 != 0)
	case event >= evWriteHit && event < evWriteHit+4:
		bits := event - evWriteHit
		if bits&1 != 0 {
			s.LastInvalidator = other
		}
		c.writeHitRef(&s, requester, bits&2 != 0)
	case event == evBecameUncached:
		s.LastInvalidator = other
		c.becameUncachedRef(&s)
		if s.LastInvalidator == memory.NoNode {
			flags |= flagClearLast
		}
	default:
		panic(fmt.Sprintf("core: unknown event %d", event))
	}
	if notified {
		// The reference handlers always notify with the post-transition
		// (Evidence, Migratory) pair; apply() reconstructs the Change from
		// the entry on that invariant, so enforce it at build time.
		if change.Evidence != int(s.Evidence) || change.Migratory != s.Migratory {
			panic(fmt.Sprintf("core: notification %+v disagrees with state %s", change, s.String()))
		}
		flags |= flagNotify
		if change.Flipped {
			flags |= flagFlipped
		}
	}
	if s.Evidence > 255 {
		panic(fmt.Sprintf("core: evidence %d out of table range", s.Evidence))
	}
	return tableEntry{count: s.Count, mig: s.Migratory, evidence: uint8(s.Evidence), flags: flags}
}
