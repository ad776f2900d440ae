package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"migratory/internal/memory"
)

// Stats summarizes a trace: totals, per-node activity, footprint, and an
// off-line sharing-pattern classification of each block. The classification
// is the ground truth against which the on-line adaptive protocols can be
// judged (the protocols only ever see the access stream).
type Stats struct {
	Accesses int
	Reads    int
	Writes   int
	Nodes    int // number of distinct nodes that appear

	Blocks      int // distinct blocks touched
	Pages       int // distinct pages touched
	FootprintKB int // Pages * page size / 1024

	PerNode []int // accesses per node, indexed by NodeID

	// Sharing-pattern census over blocks (see BlockPattern).
	PrivateBlocks    int
	ReadSharedBlocks int
	MigratoryBlocks  int
	OtherBlocks      int
}

// BlockPattern is the off-line classification of one block's access
// pattern over a whole trace.
type BlockPattern uint8

const (
	// PatternPrivate: the block was only ever accessed by one node.
	PatternPrivate BlockPattern = iota
	// PatternReadShared: multiple nodes accessed the block, and after the
	// initializing writes (writes by the first writer before any second
	// node touched it) it was only read.
	PatternReadShared
	// PatternMigratory: multiple nodes both read and wrote the block, and
	// accesses cluster into single-node read/write runs: whenever the
	// accessing node changes, the previous node's run included a write.
	PatternMigratory
	// PatternOther: any remaining multi-node pattern (producer/consumer,
	// false sharing, irregular).
	PatternOther
)

// String names the pattern.
func (p BlockPattern) String() string {
	switch p {
	case PatternPrivate:
		return "private"
	case PatternReadShared:
		return "read-shared"
	case PatternMigratory:
		return "migratory"
	case PatternOther:
		return "other"
	default:
		return fmt.Sprintf("BlockPattern(%d)", uint8(p))
	}
}

type blockHistory struct {
	firstNode memory.NodeID
	nodes     memory.NodeSet
	writes    int
	// Run tracking for the migratory test.
	curNode      memory.NodeID
	curRunWrote  bool
	migrations   int
	cleanHandoff int // node changed while previous run had no write
	// Writes by a non-first node, or by the first node after another node
	// has touched the block, disqualify read-shared.
	lateWrites int
}

// observe feeds one access into a block's history, followed by the silent
// repeats folded into it (Access.Fold). For blocks of FoldGranule to
// FoldRegion bytes, the repeats are the block's next accesses after a, all
// by a's node: a folded read changes nothing, and a folded write is one
// more write of a's run, late exactly when a is.
func (h *blockHistory) observe(a Access) {
	if a.Node != h.curNode {
		if h.curRunWrote {
			h.migrations++
		} else {
			h.cleanHandoff++
		}
		h.curNode = a.Node
		h.curRunWrote = false
	}
	writes := int(a.FoldedWrites())
	if a.Kind == Write {
		writes++
	}
	if writes > 0 {
		h.writes += writes
		h.curRunWrote = true
		if a.Node != h.firstNode || h.nodes.Len() > 1 {
			h.lateWrites += writes
		}
	}
	h.nodes = h.nodes.Add(a.Node)
}

func observeBlock(blocks *memory.BlockMap[blockHistory], a Access, geom memory.Geometry) {
	h, created := blocks.GetOrCreate(geom.Block(a.Addr))
	if created {
		*h = blockHistory{firstNode: a.Node, curNode: a.Node}
	}
	h.observe(a)
}

// buildHistories runs every access through its block's history. The
// histories hold no pointers, so the chunks of the BlockMap that indexes
// them are never scanned by the garbage collector.
func buildHistories(src Reader, geom memory.Geometry) (*memory.BlockMap[blockHistory], error) {
	blocks := new(memory.BlockMap[blockHistory])
	buf := GetBatch()
	defer PutBatch(buf)
	for {
		n, err := FillBatch(src, buf)
		for _, a := range buf[:n] {
			observeBlock(blocks, a, geom)
		}
		if errors.Is(err, io.EOF) {
			return blocks, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Analyze computes Stats for a trace under the given geometry.
func Analyze(accesses []Access, geom memory.Geometry) Stats {
	st, err := AnalyzeSource(NewSliceSource(accesses), geom)
	if err != nil {
		// A SliceSource never fails.
		panic(err)
	}
	return st
}

// AnalyzeSource computes Stats for a streamed trace in a single pass. The
// census state is proportional to the trace's footprint (distinct blocks
// and pages), never to its length.
func AnalyzeSource(src Reader, geom memory.Geometry) (Stats, error) {
	var st Stats
	pages := make(map[memory.PageID]struct{})
	perNode := make(map[memory.NodeID]int)
	blocks := new(memory.BlockMap[blockHistory])

	buf := GetBatch()
	defer PutBatch(buf)
	for {
		n, err := FillBatch(src, buf)
		for _, a := range buf[:n] {
			st.Accesses++
			if a.Kind == Read {
				st.Reads++
			} else {
				st.Writes++
			}
			perNode[a.Node]++
			pages[geom.Page(a.Addr)] = struct{}{}
			observeBlock(blocks, a, geom)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return Stats{}, err
		}
	}

	st.Blocks = blocks.Len()
	st.Pages = len(pages)
	st.FootprintKB = len(pages) * geom.PageSize() / 1024

	var maxNode memory.NodeID
	for n := range perNode {
		if n > maxNode {
			maxNode = n
		}
	}
	st.Nodes = len(perNode)
	st.PerNode = make([]int, int(maxNode)+1)
	for n, c := range perNode {
		st.PerNode[n] = c
	}

	blocks.ForEach(func(_ memory.BlockID, h *blockHistory) {
		switch classify(h) {
		case PatternPrivate:
			st.PrivateBlocks++
		case PatternReadShared:
			st.ReadSharedBlocks++
		case PatternMigratory:
			st.MigratoryBlocks++
		default:
			st.OtherBlocks++
		}
	})
	return st, nil
}

func classify(h *blockHistory) BlockPattern {
	if h.nodes.Len() <= 1 {
		return PatternPrivate
	}
	if h.lateWrites == 0 {
		return PatternReadShared
	}
	// Migratory: accesses cluster into single-writer runs. Tolerate no
	// clean handoffs at all: every change of node was preceded by a write
	// in the departing run.
	if h.migrations > 0 && h.cleanHandoff == 0 {
		return PatternMigratory
	}
	return PatternOther
}

// ClassifyBlocks returns the off-line sharing-pattern classification of
// every block touched by the trace. This is the "oracle" view an off-line
// analysis (§5's load-with-intent-to-modify discussion) would have: it sees
// the whole future, where the on-line protocols can only react to the past.
func ClassifyBlocks(accesses []Access, geom memory.Geometry) map[memory.BlockID]BlockPattern {
	out, err := ClassifyBlocksSource(NewSliceSource(accesses), geom)
	if err != nil {
		// A SliceSource never fails.
		panic(err)
	}
	return out
}

// ClassifyBlocksSource is ClassifyBlocks over a streamed trace: one pass,
// state proportional to the number of distinct blocks. src may yield a
// folded trace's kept accesses (Folded.OpenKept) when geom's blocks are
// FoldGranule to FoldRegion bytes: the result is the full trace's.
func ClassifyBlocksSource(src Reader, geom memory.Geometry) (map[memory.BlockID]BlockPattern, error) {
	blocks, err := buildHistories(src, geom)
	if err != nil {
		return nil, err
	}
	out := make(map[memory.BlockID]BlockPattern, blocks.Len())
	blocks.ForEach(func(b memory.BlockID, h *blockHistory) {
		out[b] = classify(h)
	})
	return out, nil
}

// String renders a human-readable multi-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accesses: %d (%d reads, %d writes)\n", s.Accesses, s.Reads, s.Writes)
	fmt.Fprintf(&b, "nodes: %d  blocks: %d  pages: %d  footprint: %d KB\n",
		s.Nodes, s.Blocks, s.Pages, s.FootprintKB)
	fmt.Fprintf(&b, "block patterns: %d private, %d read-shared, %d migratory, %d other\n",
		s.PrivateBlocks, s.ReadSharedBlocks, s.MigratoryBlocks, s.OtherBlocks)
	return b.String()
}

// TopPages returns the n most-referenced pages with their counts,
// descending; useful for inspecting placement decisions.
func TopPages(accesses []Access, geom memory.Geometry, n int) []PageCount {
	counts := make(map[memory.PageID]int)
	for _, a := range accesses {
		counts[geom.Page(a.Addr)]++
	}
	out := make([]PageCount, 0, len(counts))
	for p, c := range counts {
		out = append(out, PageCount{Page: p, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Page < out[j].Page
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// PageCount pairs a page with its reference count.
type PageCount struct {
	Page  memory.PageID
	Count int
}
