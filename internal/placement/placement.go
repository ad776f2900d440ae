// Package placement assigns virtual pages of the shared address space to
// home nodes. The home node of a page holds the memory and the directory
// entries for every block in the page, so placement determines how many
// coherence operations cross node boundaries.
//
// The paper's trace-driven simulator "uses a simple dynamic technique for
// finding a good static placement" (§3.3, after Bolosky et al. and
// Stenström et al.), while the execution-driven simulations use "the
// standard round-robin memory allocation" (§4.2 attributes most of the gap
// between the two sets of results to exactly this difference). Both are
// provided here, plus first-touch as a common point of comparison.
package placement

import (
	"errors"
	"fmt"
	"io"

	"migratory/internal/memory"
	"migratory/internal/trace"
)

// Policy maps pages to home nodes. Implementations are immutable once
// built; Home must be deterministic.
type Policy interface {
	// Home returns the home node of a page.
	Home(p memory.PageID) memory.NodeID
	// Name identifies the policy in reports.
	Name() string
}

// RoundRobin assigns page p to node p mod n.
type RoundRobin struct {
	n int
}

// NewRoundRobin returns a round-robin policy over n nodes.
func NewRoundRobin(n int) RoundRobin {
	if n <= 0 {
		panic(fmt.Sprintf("placement: node count %d", n))
	}
	return RoundRobin{n: n}
}

// Home implements Policy.
func (r RoundRobin) Home(p memory.PageID) memory.NodeID {
	return memory.NodeID(uint64(p) % uint64(r.n))
}

// Name implements Policy.
func (r RoundRobin) Name() string { return "round-robin" }

// Static is a fixed page->node table with a fallback for unmapped pages.
//
// The directory engines ask for a home on every directory miss, so Home
// answers pages below the highest mapped one (up to denseLimit) from a
// flat slice that already folds in the fallback; only pages beyond it
// consult the map.
type Static struct {
	name     string
	table    map[memory.PageID]memory.NodeID
	dense    []memory.NodeID // dense[p] == Home(p) for p < len(dense)
	fallback RoundRobin
}

// denseLimit bounds Static's flat table (1 MB of NodeIDs, a 4 GB address
// space at 4 KB pages); mapped pages at or beyond it stay map-only, so one
// wild page ID cannot allocate an enormous slice.
const denseLimit = memory.PageID(1) << 20

// newStatic builds a Static over table, precomputing its dense prefix.
func newStatic(name string, table map[memory.PageID]memory.NodeID, nodes int) *Static {
	s := &Static{name: name, table: table, fallback: NewRoundRobin(nodes)}
	var n memory.PageID
	for p := range table {
		if p < denseLimit && p >= n {
			n = p + 1
		}
	}
	s.dense = make([]memory.NodeID, n)
	for p := range s.dense {
		s.dense[p] = s.lookup(memory.PageID(p))
	}
	return s
}

// Home implements Policy.
func (s *Static) Home(p memory.PageID) memory.NodeID {
	if p < memory.PageID(len(s.dense)) {
		return s.dense[p]
	}
	return s.lookup(p)
}

// lookup is Home without the dense table: the mapped node, else the
// round-robin fallback.
func (s *Static) lookup(p memory.PageID) memory.NodeID {
	if n, ok := s.table[p]; ok {
		return n
	}
	return s.fallback.Home(p)
}

// Name implements Policy.
func (s *Static) Name() string { return s.name }

// Pages returns the number of explicitly mapped pages.
func (s *Static) Pages() int { return len(s.table) }

// FirstTouch builds a static placement that assigns each page to the first
// node that references it in the trace.
func FirstTouch(accesses []trace.Access, geom memory.Geometry, nodes int) *Static {
	s, err := FirstTouchSource(trace.NewSliceSource(accesses), geom, nodes)
	if err != nil {
		// A SliceSource never fails.
		panic(err)
	}
	return s
}

// FirstTouchSource is FirstTouch over a streamed trace: one pass, state
// proportional to the number of distinct pages.
func FirstTouchSource(src trace.Reader, geom memory.Geometry, nodes int) (*Static, error) {
	table := make(map[memory.PageID]memory.NodeID)
	err := each(src, func(a trace.Access) {
		p := geom.Page(a.Addr)
		if _, ok := table[p]; !ok {
			table[p] = a.Node
		}
	})
	if err != nil {
		return nil, err
	}
	return newStatic("first-touch", table, nodes), nil
}

// UsageBased builds the paper's "good static placement": each page is
// assigned to the node that references it most over the whole trace, with
// ties broken toward the lower node ID. This is the profile-then-place
// technique of Bolosky et al. and Stenström et al. cited in §3.3.
func UsageBased(accesses []trace.Access, geom memory.Geometry, nodes int) *Static {
	s, err := UsageBasedSource(trace.NewSliceSource(accesses), geom, nodes)
	if err != nil {
		// A SliceSource never fails.
		panic(err)
	}
	return s
}

// UsageBasedSource is UsageBased over a streamed trace: one pass, state
// proportional to the number of distinct pages. It is the profiling pass of
// the two-pass trace-driven methodology; the caller Resets the source and
// replays it for the protocol simulation proper.
func UsageBasedSource(src trace.Reader, geom memory.Geometry, nodes int) (*Static, error) {
	counts := make(map[memory.PageID]*[memory.MaxNodes]uint32)
	err := each(src, func(a trace.Access) {
		p := geom.Page(a.Addr)
		c, ok := counts[p]
		if !ok {
			c = new([memory.MaxNodes]uint32)
			counts[p] = c
		}
		c[a.Node]++
	})
	if err != nil {
		return nil, err
	}
	table := make(map[memory.PageID]memory.NodeID, len(counts))
	for p, c := range counts {
		best := memory.NodeID(0)
		for n := 1; n < nodes; n++ {
			if c[n] > c[best] {
				best = memory.NodeID(n)
			}
		}
		table[p] = best
	}
	return newStatic("usage-based", table, nodes), nil
}

// LocalFraction reports the fraction of accesses in the trace whose page is
// homed at the accessing node under the given policy. It is a direct
// measure of placement quality.
func LocalFraction(accesses []trace.Access, geom memory.Geometry, p Policy) float64 {
	f, err := LocalFractionSource(trace.NewSliceSource(accesses), geom, p)
	if err != nil {
		// A SliceSource never fails.
		panic(err)
	}
	return f
}

// LocalFractionSource is LocalFraction over a streamed trace.
func LocalFractionSource(src trace.Reader, geom memory.Geometry, p Policy) (float64, error) {
	local, total := 0, 0
	err := each(src, func(a trace.Access) {
		total++
		if p.Home(geom.Page(a.Addr)) == a.Node {
			local++
		}
	})
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, nil
	}
	return float64(local) / float64(total), nil
}

// each drains src through fn, folding io.EOF into a nil return.
func each(src trace.Reader, fn func(trace.Access)) error {
	for {
		a, err := src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(a)
	}
}
