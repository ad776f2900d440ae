package core

import (
	"fmt"
	"reflect"
	"testing"

	"migratory/internal/memory"
)

// tablePolicies are the policies the equivalence tests sweep: the four
// published protocols, the §5 related-work policy, and ablations that flip
// each behavior-relevant policy bit the table construction keys on.
func tablePolicies() []Policy {
	ps := append(Policies(), Stenstrom)
	ps = append(ps,
		Policy{Name: "no-retain", Adaptive: true, Hysteresis: 1},
		Policy{Name: "hyst3", Adaptive: true, Hysteresis: 3, RetainWhenUncached: true},
		Policy{Name: "aggr-no-retain", Adaptive: true, InitialMigratory: true, Hysteresis: 2},
	)
	return ps
}

// tableEvent is one call against the classifier's public event API,
// including the LastInvalidator context the transition consults.
type tableEvent struct {
	name string
	last memory.NodeID // pre-set LastInvalidator
	call func(c *Classifier, s *State)
	ref  func(c *Classifier, s *State)
}

func tableEvents() []tableEvent {
	const requester = memory.NodeID(2)
	lasts := []memory.NodeID{memory.NoNode, requester, memory.NodeID(5)}
	var evs []tableEvent
	for _, dirty := range []bool{false, true} {
		dirty := dirty
		evs = append(evs, tableEvent{
			name: fmt.Sprintf("ReadMiss(dirty=%v)", dirty),
			last: memory.NoNode,
			call: func(c *Classifier, s *State) { c.ReadMiss(s, dirty) },
			ref:  func(c *Classifier, s *State) { c.readMissRef(s, dirty) },
		})
	}
	for _, last := range lasts {
		for _, hadCopies := range []bool{false, true} {
			for _, dirty := range []bool{false, true} {
				last, hadCopies, dirty := last, hadCopies, dirty
				evs = append(evs, tableEvent{
					name: fmt.Sprintf("WriteMiss(last=%d,hadCopies=%v,dirty=%v)", last, hadCopies, dirty),
					last: last,
					call: func(c *Classifier, s *State) { c.WriteMiss(s, requester, hadCopies, dirty) },
					ref:  func(c *Classifier, s *State) { c.writeMissRef(s, requester, hadCopies, dirty) },
				})
			}
		}
		for _, inv := range []bool{false, true} {
			last, inv := last, inv
			evs = append(evs, tableEvent{
				name: fmt.Sprintf("WriteHit(last=%d,invalidatedOthers=%v)", last, inv),
				last: last,
				call: func(c *Classifier, s *State) { c.WriteHit(s, requester, inv) },
				ref:  func(c *Classifier, s *State) { c.writeHitRef(s, requester, inv) },
			})
		}
	}
	for _, last := range lasts {
		last := last
		evs = append(evs, tableEvent{
			name: fmt.Sprintf("BecameUncached(last=%d)", last),
			last: last,
			call: func(c *Classifier, s *State) { c.BecameUncached(s) },
			ref:  func(c *Classifier, s *State) { c.becameUncachedRef(s) },
		})
	}
	return evs
}

// TestTableMatchesReference exhaustively compares the precomputed
// transition table against the reference switch implementations: every
// policy shape x reachable state x event, including the Observe
// notification stream and the LastInvalidator updates.
func TestTableMatchesReference(t *testing.T) {
	for _, p := range tablePolicies() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tbl := tableFor(p)
			if tbl == nil {
				t.Fatalf("policy %v not tabulated", p)
			}
			for evidence := 0; evidence <= p.Hysteresis; evidence++ {
				for count := Uncached; count <= ThreeOrMore; count++ {
					for _, mig := range []bool{false, true} {
						for _, ev := range tableEvents() {
							start := State{Count: count, Migratory: mig, Evidence: uint16(evidence), LastInvalidator: ev.last}
							got, want := start, start
							var gotN, wantN []Change
							tc := Classifier{policy: p, table: tbl, Observe: func(ch Change) { gotN = append(gotN, ch) }}
							rc := Classifier{policy: p, Observe: func(ch Change) { wantN = append(wantN, ch) }}
							ev.call(&tc, &got)
							ev.ref(&rc, &want)
							if got != want {
								t.Fatalf("%s from {count=%v mig=%v ev=%d}: table %s, reference %s",
									ev.name, count, mig, evidence, got.String(), want.String())
							}
							if !reflect.DeepEqual(gotN, wantN) {
								t.Fatalf("%s from {count=%v mig=%v ev=%d}: table notified %+v, reference %+v",
									ev.name, count, mig, evidence, gotN, wantN)
							}
						}
					}
				}
			}
		})
	}
}

// TestHugeHysteresisFallsBackToReference pins the table-size guard: the
// largest tabulated hysteresis builds its table, and one beyond it runs the
// reference switches and still behaves.
func TestHugeHysteresisFallsBackToReference(t *testing.T) {
	top := Policy{Name: "top", Adaptive: true, Hysteresis: maxTableHysteresis, RetainWhenUncached: true}
	if tableFor(top) == nil {
		t.Fatalf("hysteresis %d should be tabulated", top.Hysteresis)
	}
	p := Policy{Name: "huge", Adaptive: true, Hysteresis: maxTableHysteresis + 1, RetainWhenUncached: true}
	c := newBlock(p)
	if c.c.table != nil {
		t.Fatalf("hysteresis %d should not be tabulated", p.Hysteresis)
	}
	c.ReadMiss(false)
	c.WriteMiss(1, true, true)
	c.WriteMiss(2, true, true)
	if c.Evidence != 1 {
		t.Fatalf("evidence = %d, want 1", c.Evidence)
	}
}

// TestTableCacheSharedAcrossNames verifies that two policies differing only
// in Name share one table.
func TestTableCacheSharedAcrossNames(t *testing.T) {
	a := Basic
	b := Basic
	b.Name = "renamed"
	if tableFor(a) != tableFor(b) {
		t.Fatal("same-shape policies built distinct tables")
	}
}
