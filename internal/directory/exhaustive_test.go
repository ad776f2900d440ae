package directory

import (
	"fmt"
	"strings"
	"testing"

	"migratory/internal/core"
	"migratory/internal/memory"
	"migratory/internal/placement"
	"migratory/internal/trace"
)

// TestExhaustiveStateSpace is the directory-side model check: explore
// every reachable (line states x directory entry x classifier) state for
// one block and three processors, verifying the invariants at each, and
// require the state space to close.
func TestExhaustiveStateSpace(t *testing.T) {
	policies := append(core.Policies(), core.Stenstrom,
		core.Policy{Name: "forgetful-basic", Adaptive: true, Hysteresis: 1},
		core.Policy{Name: "hyst3", Adaptive: true, Hysteresis: 3, RetainWhenUncached: true},
	)
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name, func(t *testing.T) {
			n := exploreDirectory(t, pol, 0)
			if n < 4 {
				t.Fatalf("only %d states", n)
			}
			t.Logf("%s: %d reachable states", pol.Name, n)
		})
	}
	t.Run("basic-dir1", func(t *testing.T) {
		n := exploreDirectory(t, core.Basic, 1)
		t.Logf("basic with 1 directory pointer: %d reachable states", n)
	})
}

func dirSignature(s *System, nodes int) string {
	var b strings.Builder
	for i := 0; i < nodes; i++ {
		line := s.caches[i].Peek(0)
		if line == nil {
			b.WriteString("- ")
			continue
		}
		fmt.Fprintf(&b, "%d/%v ", line.State, line.Dirty)
	}
	e := s.entries.Get(0)
	if e == nil {
		b.WriteString("|no-entry")
		return b.String()
	}
	fmt.Fprintf(&b, "|%v %d %v %v|%s", e.copies, e.owner, e.is(flagDirty), e.is(flagOverflow), e.cls.String())
	return b.String()
}

func exploreDirectory(t *testing.T, pol core.Policy, pointers int) int {
	t.Helper()
	const nodes = 3
	var events []trace.Access
	for n := memory.NodeID(0); n < nodes; n++ {
		events = append(events,
			trace.Access{Node: n, Kind: trace.Read, Addr: 0},
			trace.Access{Node: n, Kind: trace.Write, Addr: 0},
		)
	}
	replay := func(path []trace.Access) *System {
		s, err := New(Config{
			Nodes: nodes, Geometry: geom, Policy: pol,
			Placement: placement.NewRoundRobin(nodes), CheckCoherence: true,
			DirPointers: pointers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range path {
			if err := s.Access(a); err != nil {
				t.Fatalf("replaying %v at %d: %v", path, i, err)
			}
		}
		return s
	}

	seen := map[string][]trace.Access{}
	start := dirSignature(replay(nil), nodes)
	seen[start] = nil
	frontier := []string{start}
	const depthBound = 40
	for depth := 0; depth < depthBound && len(frontier) > 0; depth++ {
		var next []string
		for _, sig := range frontier {
			path := seen[sig]
			for _, ev := range events {
				s := replay(append(append([]trace.Access{}, path...), ev))
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("state %q + %v: %v", sig, ev, err)
				}
				ns := dirSignature(s, nodes)
				if _, ok := seen[ns]; ok {
					continue
				}
				seen[ns] = append(append([]trace.Access{}, path...), ev)
				next = append(next, ns)
			}
		}
		frontier = next
	}
	if len(frontier) != 0 {
		t.Fatalf("state space did not close within %d steps: %d states and growing", depthBound, len(seen))
	}
	return len(seen)
}
