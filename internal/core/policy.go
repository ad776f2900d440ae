// Package core implements the paper's primary contribution: the on-line
// classification of cache blocks as migratory or other, following the
// directory-entry semantics of Figure 3, generalized over the three policy
// axes the paper identifies in §2:
//
//  1. adaptation speed — how many successive "migratory events" are needed
//     before a block is reclassified as migratory (hysteresis);
//  2. classification memory — whether the classification survives intervals
//     in which the block is uncached;
//  3. initial classification — migratory or other.
//
// The directory engine (internal/directory) and, in spirit, the snooping
// engine (internal/snoop) consume this package. The snooping protocol
// cannot retain state for uncached blocks, so it implements its
// classification directly in its transition relation (Figure 2), but the
// decision rules are the same ones expressed here.
package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnknownPolicy is wrapped by PolicyByName when no protocol matches, so
// callers can classify the failure with errors.Is.
var ErrUnknownPolicy = errors.New("core: unknown policy")

// Policy selects a member of the adaptive protocol family.
type Policy struct {
	// Name identifies the policy in reports ("conventional", "basic", ...).
	Name string
	// Adaptive is false for the conventional replicate-on-read-miss
	// protocol: blocks are never classified migratory.
	Adaptive bool
	// InitialMigratory classifies never-before-seen blocks as migratory
	// (the paper's aggressive protocol).
	InitialMigratory bool
	// Hysteresis is the number of successive migratory events required to
	// classify a block as migratory. 1 reclassifies immediately; 2 matches
	// the Figure 3 "one migration" flag of the conservative protocol.
	Hysteresis int
	// RetainWhenUncached preserves the classification, evidence counter,
	// and last-invalidator across intervals in which the block is not in
	// any cache. All three published variants retain (Figure 3 preserves
	// the directory entry explicitly); disabling it is an ablation that
	// models snooping-style protocols with no storage for uncached blocks.
	RetainWhenUncached bool
	// DeclassifyOnWriteMiss additionally shifts a block out of migratory
	// mode on any write miss, as in the concurrently published protocol of
	// Stenström, Brorsson & Sandberg (§5: "Their protocol also shifts on
	// any write miss to a migratory block"). The paper's own protocols
	// declassify on write miss only when the block was clean.
	DeclassifyOnWriteMiss bool
}

// The four protocols evaluated in §4.1 of the paper.
var (
	// Conventional is the replicate-on-read-miss baseline.
	Conventional = Policy{Name: "conventional"}
	// Conservative starts blocks as non-migratory and requires two
	// successive migratory events to classify (Figure 3).
	Conservative = Policy{Name: "conservative", Adaptive: true, Hysteresis: 2, RetainWhenUncached: true}
	// Basic starts blocks as non-migratory and classifies after a single
	// event.
	Basic = Policy{Name: "basic", Adaptive: true, Hysteresis: 1, RetainWhenUncached: true}
	// Aggressive starts blocks as migratory, reclassifies after a single
	// event, and remembers classifications while a block is uncached.
	Aggressive = Policy{Name: "aggressive", Adaptive: true, InitialMigratory: true, Hysteresis: 1, RetainWhenUncached: true}
)

// Stenstrom is the related-work protocol of Stenström, Brorsson & Sandberg
// (ISCA 1993), which the paper describes as "very similar" to its own: the
// same classification rule as Basic, but shifting out of migratory mode on
// any write miss to a migratory block rather than only on clean ones. It is
// not part of Policies() — the paper's tables do not include it — but is
// provided for the quantitative comparison §5 calls for.
var Stenstrom = Policy{Name: "stenstrom", Adaptive: true, Hysteresis: 1, RetainWhenUncached: true, DeclassifyOnWriteMiss: true}

// Policies lists the four published protocols in the order the paper's
// tables present them.
func Policies() []Policy {
	return []Policy{Conventional, Conservative, Basic, Aggressive}
}

// PolicyByName looks a policy up by its report name. Besides the four
// published protocols it also resolves "stenstrom", the §5 related-work
// comparison policy.
func PolicyByName(name string) (Policy, error) {
	for _, p := range append(Policies(), Stenstrom) {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("%w: %q", ErrUnknownPolicy, name)
}

// maxHysteresis is the largest hysteresis a policy may set: the largest
// value State.Evidence holds.
const maxHysteresis = math.MaxUint16

// Validate checks policy parameters.
func (p Policy) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("core: policy has no name")
	}
	if !p.Adaptive {
		if p.InitialMigratory {
			return fmt.Errorf("core: policy %q: non-adaptive policy cannot start migratory", p.Name)
		}
		return nil
	}
	if p.Hysteresis < 1 {
		return fmt.Errorf("core: policy %q: hysteresis %d must be >= 1", p.Name, p.Hysteresis)
	}
	if p.Hysteresis > maxHysteresis {
		return fmt.Errorf("core: policy %q: hysteresis %d must be <= %d", p.Name, p.Hysteresis, maxHysteresis)
	}
	return nil
}

// String returns the policy name.
func (p Policy) String() string { return p.Name }
