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
	// first[p] is 1 + the first node to touch dense page p, 0 if none has.
	var first []uint16
	sparse := make(map[memory.PageID]memory.NodeID)
	err := eachBatch(src, func(batch []trace.Access) {
		for _, a := range batch {
			p := geom.Page(a.Addr)
			if p >= tallyDenseLimit {
				if _, ok := sparse[p]; !ok {
					sparse[p] = a.Node
				}
				continue
			}
			if int(p) >= len(first) {
				first = append(first, make([]uint16, int(p)+1-len(first))...)
			}
			if first[p] == 0 {
				first[p] = uint16(a.Node) + 1
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for p, n := range first {
		if n != 0 {
			sparse[memory.PageID(p)] = memory.NodeID(n - 1)
		}
	}
	return newStatic("first-touch", sparse, nodes), nil
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
	// A dense page p owns the row counts[p*w : (p+1)*w]: one count per node,
	// then a mark that the page was touched at all (by any node, in range or
	// not), which maps it even when no in-range node counted.
	w := nodes + 1
	var counts []uint32
	sparse := make(map[memory.PageID][]uint32)
	err := eachBatch(src, func(batch []trace.Access) {
		for _, a := range batch {
			p := geom.Page(a.Addr)
			var row []uint32
			if p < tallyDenseLimit {
				if need := (int(p) + 1) * w; need > len(counts) {
					counts = append(counts, make([]uint32, need-len(counts))...)
				}
				row = counts[int(p)*w : int(p)*w+w]
			} else if row = sparse[p]; row == nil {
				row = make([]uint32, w)
				sparse[p] = row
			}
			if int(a.Node) < nodes {
				row[a.Node]++
			}
			row[nodes] = 1
		}
	})
	if err != nil {
		return nil, err
	}
	table := make(map[memory.PageID]memory.NodeID, len(counts)/w+len(sparse))
	for off := 0; off < len(counts); off += w {
		if row := counts[off : off+w]; row[nodes] != 0 {
			table[memory.PageID(off/w)] = busiest(row[:nodes])
		}
	}
	for p, row := range sparse {
		table[p] = busiest(row[:nodes])
	}
	return newStatic("usage-based", table, nodes), nil
}

// busiest returns the node with the highest count, ties broken toward the
// lower node ID.
func busiest(counts []uint32) memory.NodeID {
	best := 0
	for n := 1; n < len(counts); n++ {
		if counts[n] > counts[best] {
			best = n
		}
	}
	return memory.NodeID(best)
}

// tallyDenseLimit bounds the page-indexed tables the profiling passes fill
// (a 256 MB address space at 4 KB pages: at most 4.5 MB of usage counts
// for 16 nodes); pages at or beyond it are tallied in a map, so one wild
// page ID cannot allocate an enormous table.
const tallyDenseLimit = memory.PageID(1) << 16

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
	err := eachBatch(src, func(batch []trace.Access) {
		for _, a := range batch {
			total++
			if p.Home(geom.Page(a.Addr)) == a.Node {
				local++
			}
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

// eachBatch drains src through fn in trace.DefaultBatchSize chunks, folding
// io.EOF into a nil return.
func eachBatch(src trace.Reader, fn func([]trace.Access)) error {
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	for {
		n, err := trace.FillBatch(src, buf)
		fn(buf[:n])
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
