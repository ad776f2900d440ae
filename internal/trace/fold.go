package trace

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"migratory/internal/memory"
)

// Folding. In the paper's migratory pattern one processor at a time reads
// and then writes a block (§2), so most references are that processor's
// repeat hits on a block it already holds. Such a *silent repeat* changes
// nothing in any engine but hit counters, so a Folded trace drops it from
// the accesses the engines replay and counts it on the access it repeats,
// in the spirit of exact trace stripping (Puzak 1985). A replay tape of
// two bytes per original access keeps the form lossless: Open replays the
// original trace bit for bit.
//
// The fold rule. An access x = (node n, kind, addr) is a silent repeat,
// folded into n's previous kept access k, when
//   - n's previous access was to the same FoldGranule-byte granule,
//   - no other node has touched the enclosing FoldRegion-byte region since
//     then, and
//   - x is a read, or n has already written the granule in this run (the
//     consecutive accesses of n to the granule, with no other node in the
//     region).
//
// For every block size from FoldGranule to FoldRegion bytes the granule
// lies inside the block and the block inside the region, so one folded
// trace serves every such geometry. DESIGN.md §7 gives the argument that
// replaying the kept accesses and crediting the folds is exact.
const (
	// FoldGranule is the byte granule a silent repeat must share with its
	// node's previous access: the smallest block size it is exact for.
	FoldGranule = 16
	// FoldRegion is the byte region no other node may touch between a
	// kept access and its repeats: the largest block size it is exact for.
	FoldRegion = 256

	// foldMax caps each of Access.Fold's two counts; a repeat past the cap
	// is kept.
	foldMax = 1<<16 - 1

	// A tape entry is tapeKept ("the next kept access") or tapeSilent |
	// node<<5 | kind<<4 | addr&15, a silent repeat of node's granule.
	tapeKept   = 0
	tapeSilent = 1 << 15
)

var (
	// ErrFolded is wrapped by the single-access engine entry points, the
	// probed and checked batch paths, and the trace writers when they are
	// handed an access with folded repeats (Access.Fold != 0), which they
	// would otherwise drop.
	ErrFolded = errors.New("trace: access carries folded repeats")
	// ErrUnfoldable is wrapped by Folder.Add for an access the tape cannot
	// carry: a node at or beyond the folder's node count, a kind other
	// than Read or Write, or an access that is already folded.
	ErrUnfoldable = errors.New("trace: access cannot be folded")
)

// Folded is a trace stored as its kept accesses, each carrying the count
// of silent repeats folded into it (Access.Fold), and a replay tape of one
// uint16 per original access. A Folded is immutable and safe to share.
type Folded struct {
	kept []Access
	tape []uint16
}

// Folder builds a Folded incrementally from a stream of batches.
type Folder struct {
	nodes int
	kept  []Access
	tape  []uint16
	// Per node: the index in kept of its latest kept access (-1 before its
	// first access), the granule (addr >> 4) of its latest access, and
	// whether it has written that granule in the current run.
	last    []int
	gran    []memory.Addr
	written []bool
	// regions holds, per FoldRegion-byte region, 1 + the node that touched
	// it last (0 for none).
	regions memory.BlockMap[uint8]
	err     error
}

// NewFolder returns a folder for a trace over nodes processors (at most
// memory.MaxNodes). sizeHint, when positive, is the trace's length: the
// tape, one entry per access, is allocated at exactly that capacity, and
// the kept-access buffer at half of it (the default applications keep 27
// to 38 % of their accesses), growing by append past that.
func NewFolder(nodes, sizeHint int) *Folder {
	nodes = min(nodes, memory.MaxNodes)
	f := &Folder{
		nodes:   nodes,
		last:    make([]int, nodes),
		gran:    make([]memory.Addr, nodes),
		written: make([]bool, nodes),
	}
	for i := range f.last {
		f.last[i] = -1
	}
	if sizeHint > 0 {
		f.kept = make([]Access, 0, sizeHint/2)
		f.tape = make([]uint16, 0, sizeHint)
	}
	return f
}

// Add folds one batch of accesses, in trace order. An access the tape
// cannot carry (see ErrUnfoldable) refuses the whole trace: Add releases
// what it built and returns the error, now and on every later call.
func (f *Folder) Add(batch []Access) error {
	if f.err != nil {
		return f.err
	}
	for _, a := range batch {
		n := int(a.Node)
		if n >= f.nodes {
			f.err = fmt.Errorf("%w: access %d: node %d out of range (%d nodes)", ErrUnfoldable, len(f.tape), n, f.nodes)
		} else if a.Kind > Write || a.Fold != 0 {
			f.err = fmt.Errorf("%w: access %d (%v)", ErrUnfoldable, len(f.tape), a)
		}
		if f.err != nil {
			f.kept, f.tape = nil, nil
			return f.err
		}
		g := a.Addr / FoldGranule
		owner, _ := f.regions.GetOrCreate(memory.BlockID(a.Addr / FoldRegion))
		if k := f.last[n]; k >= 0 && f.gran[n] == g && *owner == uint8(n)+1 {
			// Same run: x repeats n's granule with no other node in the
			// region since n's previous access.
			if a.Kind == Read {
				if f.kept[k].Fold&foldMax < foldMax {
					f.kept[k].Fold++
					f.tape = append(f.tape, tapeEntry(a))
					continue
				}
			} else if f.written[n] && f.kept[k].Fold>>16 < foldMax {
				f.kept[k].Fold += 1 << 16
				f.tape = append(f.tape, tapeEntry(a))
				continue
			}
		} else {
			f.gran[n] = g
			f.written[n] = false
			*owner = uint8(n) + 1
		}
		if a.Kind == Write {
			f.written[n] = true
		}
		f.last[n] = len(f.kept)
		f.kept = append(f.kept, a)
		f.tape = append(f.tape, tapeKept)
	}
	return nil
}

func tapeEntry(a Access) uint16 {
	return tapeSilent | uint16(a.Node)<<5 | uint16(a.Kind)<<4 | uint16(a.Addr%FoldGranule)
}

// Folded returns the folded trace, or the error that refused it. The kept
// accesses are copied out of the folder's buffer to their exact length:
// the heap counts a slice at its capacity, and a buffer sized for the
// whole trace would raise every later GC goal by the unused part.
func (f *Folder) Folded() (*Folded, error) {
	if f.err != nil {
		return nil, f.err
	}
	kept := f.kept
	if cap(kept) > len(kept) {
		kept = slices.Clone(kept)
	}
	return &Folded{kept: kept, tape: f.tape}, nil
}

// Fold folds a whole in-memory trace over nodes processors.
func Fold(accs []Access, nodes int) (*Folded, error) {
	f := NewFolder(nodes, len(accs))
	if err := f.Add(accs); err != nil {
		return nil, err
	}
	return f.Folded()
}

// keepAll returns accs as a Folded that keeps every access: how the
// segment cache holds a segment the folder refuses.
func keepAll(accs []Access) *Folded {
	return &Folded{kept: slices.Clone(accs), tape: make([]uint16, len(accs))}
}

// expandInto writes the original trace into out, which holds exactly Len
// accesses. A Folded with no silent repeat is its kept accesses, whose
// fold counts are all zero, so it is copied without reading the tape.
func (t *Folded) expandInto(out []Access) {
	if len(t.kept) == len(t.tape) {
		copy(out, t.kept)
		return
	}
	(&expandSource{t: t}).NextBatch(out)
}

// Len returns the number of accesses in the original trace.
func (t *Folded) Len() int { return len(t.tape) }

// Kept returns the kept accesses, with their fold counts, in trace order.
// The slice is shared; the caller must not mutate it.
func (t *Folded) Kept() []Access { return t.kept }

// OpenKept returns a Source over the kept accesses, fold counts included.
// Only the engines' unprobed batch kernels can replay it (they credit the
// counts); every other consumer reads Open.
func (t *Folded) OpenKept() *SliceSource { return NewSliceSource(t.kept) }

// Open returns a Source replaying the original trace exactly: the kept
// accesses with Fold cleared, and each silent repeat rebuilt from its
// tape entry and its node's previous access.
func (t *Folded) Open() Source { return &expandSource{t: t} }

// Expand returns the original trace as a slice.
func (t *Folded) Expand() []Access {
	out := make([]Access, t.Len())
	n, _ := t.Open().(*expandSource).NextBatch(out)
	return out[:n]
}

// expandSource is Folded.Open's Source.
type expandSource struct {
	t   *Folded
	pos int // next tape entry
	k   int // next kept access
	// base[n] is the granule address (addr &^ 15) of node n's latest
	// access, which its silent repeats share.
	base [memory.MaxNodes]memory.Addr
}

// NextBatch implements BatchReader.
func (s *expandSource) NextBatch(buf []Access) (int, error) {
	tape, kept := s.t.tape, s.t.kept
	n := 0
	for ; n < len(buf) && s.pos < len(tape); n++ {
		e := tape[s.pos]
		s.pos++
		if e == tapeKept {
			a := kept[s.k]
			s.k++
			a.Fold = 0
			s.base[a.Node] = a.Addr &^ (FoldGranule - 1)
			buf[n] = a
			continue
		}
		node := memory.NodeID(e >> 5 & (memory.MaxNodes - 1))
		buf[n] = Access{Node: node, Kind: Kind(e >> 4 & 1), Addr: s.base[node] | memory.Addr(e%FoldGranule)}
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Next implements Source.
func (s *expandSource) Next() (Access, error) {
	var buf [1]Access
	_, err := s.NextBatch(buf[:])
	return buf[0], err
}

// Reset implements Source; it never fails.
func (s *expandSource) Reset() error {
	s.pos, s.k = 0, 0
	return nil
}

// Close implements Source; it never fails.
func (s *expandSource) Close() error { return nil }
