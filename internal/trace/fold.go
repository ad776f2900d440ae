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

	// foldReadMax and foldWriteMax cap a kept access's folded reads and
	// writes, the widths of their fields in a keptRec; a repeat past its
	// cap is kept.
	foldReadMax  = 1<<12 - 1
	foldWriteMax = 1<<11 - 1

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
// uint16 per original access. A kept access is held as an 8-byte keptRec,
// its high address word in a run table that is empty while every address
// is below 4 GiB. A Folded is immutable and safe to share.
type Folded struct {
	kept []keptRec
	runs []hiRun
	tape []uint16
}

// keptRec is one kept access: the low 32 bits of its address, and a meta
// word holding its node (bits 0-7), its kind (bit 8), its folded reads
// (bits 9-20) and its folded writes (bits 21-31).
type keptRec struct {
	lo   uint32
	meta uint32
}

// The meta word's field offsets.
const (
	metaKind   = 8
	metaReads  = 9
	metaWrites = 21
)

// hiRun records that the kept accesses from index at on, up to the next
// run, have hi as their high address word. Before the first run it is 0.
type hiRun struct {
	at int
	hi uint32
}

// access unpacks r, whose high address bits are hi.
func (r keptRec) access(hi memory.Addr) Access {
	return Access{
		Node: memory.NodeID(r.meta),
		Kind: Kind(r.meta >> metaKind & 1),
		Fold: r.meta>>metaReads&foldReadMax | r.meta>>metaWrites<<16,
		Addr: hi | memory.Addr(r.lo),
	}
}

// keep appends a, which carries no folds yet, as the next kept access,
// opening a run when its high address word differs from its predecessor's.
func (t *Folded) keep(a Access) {
	var cur uint32
	if len(t.runs) > 0 {
		cur = t.runs[len(t.runs)-1].hi
	}
	if hi := uint32(a.Addr >> 32); hi != cur {
		t.runs = append(t.runs, hiRun{at: len(t.kept), hi: hi})
	}
	t.kept = append(t.kept, keptRec{lo: uint32(a.Addr), meta: uint32(a.Node) | uint32(a.Kind)<<metaKind})
}

// Folder builds a Folded incrementally from a stream of batches.
type Folder struct {
	nodes int
	out   Folded
	// Per node: the index in out.kept of its latest kept access (-1 before
	// its first access), the granule (addr >> 4) of its latest access, and
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
		f.out.kept = make([]keptRec, 0, sizeHint/2)
		f.out.tape = make([]uint16, 0, sizeHint)
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
			f.err = fmt.Errorf("%w: access %d: node %d out of range (%d nodes)", ErrUnfoldable, len(f.out.tape), n, f.nodes)
		} else if a.Kind > Write || a.Fold != 0 {
			f.err = fmt.Errorf("%w: access %d (%v)", ErrUnfoldable, len(f.out.tape), a)
		}
		if f.err != nil {
			f.out = Folded{}
			return f.err
		}
		g := a.Addr / FoldGranule
		owner, _ := f.regions.GetOrCreate(memory.BlockID(a.Addr / FoldRegion))
		if k := f.last[n]; k >= 0 && f.gran[n] == g && *owner == uint8(n)+1 {
			// Same run: x repeats n's granule with no other node in the
			// region since n's previous access.
			m := &f.out.kept[k].meta
			if a.Kind == Read {
				if *m>>metaReads&foldReadMax < foldReadMax {
					*m += 1 << metaReads
					f.out.tape = append(f.out.tape, tapeEntry(a))
					continue
				}
			} else if f.written[n] && *m>>metaWrites < foldWriteMax {
				*m += 1 << metaWrites
				f.out.tape = append(f.out.tape, tapeEntry(a))
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
		f.last[n] = len(f.out.kept)
		f.out.keep(a)
		f.out.tape = append(f.out.tape, tapeKept)
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
	t := f.out
	if cap(t.kept) > len(t.kept) {
		t.kept = slices.Clone(t.kept)
	}
	return &t, nil
}

// Fold folds a whole in-memory trace over nodes processors.
func Fold(accs []Access, nodes int) (*Folded, error) {
	f := NewFolder(nodes, len(accs))
	if err := f.Add(accs); err != nil {
		return nil, err
	}
	return f.Folded()
}

// keepAll returns accs, which carry no folds, as a Folded that keeps every
// access: how the segment cache holds a segment the folder refuses (a
// header without a node count, so nodes up to 255).
func keepAll(accs []Access) *Folded {
	t := &Folded{kept: make([]keptRec, 0, len(accs)), tape: make([]uint16, len(accs))}
	for _, a := range accs {
		t.keep(a)
	}
	return t
}

// footprint is t's size in bytes: its kept records, tape and runs.
func (t *Folded) footprint() int64 {
	return int64(len(t.kept))*keptFootprint + int64(len(t.tape))*tapeFootprint + int64(len(t.runs))*runFootprint
}

// Len returns the number of accesses in the original trace.
func (t *Folded) Len() int { return len(t.tape) }

// OpenKept returns a Source over the kept accesses, fold counts included,
// unpacked into the caller's batch. Only the engines' unprobed batch
// kernels can replay it (they credit the counts); every other consumer
// reads Open.
func (t *Folded) OpenKept() Source { return &keptSource{keptCursor: keptCursor{t: t}} }

// Open returns a Source replaying the original trace exactly: the kept
// accesses with Fold cleared, and each silent repeat rebuilt from its
// tape entry and its node's previous access.
func (t *Folded) Open() Source { return &expandSource{keptCursor: keptCursor{t: t}} }

// Expand returns the original trace as a slice.
func (t *Folded) Expand() []Access {
	out := make([]Access, t.Len())
	t.expandInto(out)
	return out
}

// expandInto writes the original trace into out, which holds t.Len()
// accesses.
func (t *Folded) expandInto(out []Access) {
	s := expandSource{keptCursor: keptCursor{t: t}}
	s.NextBatch(out)
}

// keptCursor walks a Folded's kept records, tracking the high address word
// of the run that record k lies in.
type keptCursor struct {
	t   *Folded
	k   int         // next kept record
	end int         // end of the run holding record k
	run int         // next entry of t.runs
	hi  memory.Addr // high address bits of the records up to end
}

// enterRun moves the cursor into the run starting at record k, once
// record k-1 ended the last one. The caller guarantees k < len(t.kept).
func (c *keptCursor) enterRun() {
	runs := c.t.runs
	if c.run < len(runs) && runs[c.run].at == c.k {
		c.hi = memory.Addr(runs[c.run].hi) << 32
		c.run++
	}
	c.end = len(c.t.kept)
	if c.run < len(runs) {
		c.end = runs[c.run].at
	}
}

// rewind returns the cursor to the first record of t.
func (c *keptCursor) rewind(t *Folded) { *c = keptCursor{t: t} }

// unpack writes recs, whose high address bits are hi, into out, which
// holds as many accesses.
func unpack(out []Access, recs []keptRec, hi memory.Addr) {
	out = out[:len(recs)]
	for i, r := range recs {
		out[i] = r.access(hi)
	}
}

// keptSource is Folded.OpenKept's Source.
type keptSource struct{ keptCursor }

// NextBatch implements BatchReader, unpacking one run's records at a time.
func (s *keptSource) NextBatch(buf []Access) (int, error) {
	kept := s.t.kept
	n := 0
	for n < len(buf) && s.k < len(kept) {
		if s.k == s.end {
			s.enterRun()
		}
		m := min(s.end-s.k, len(buf)-n)
		unpack(buf[n:n+m], kept[s.k:s.k+m], s.hi)
		s.k += m
		n += m
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Next implements Source.
func (s *keptSource) Next() (Access, error) {
	var buf [1]Access
	_, err := s.NextBatch(buf[:])
	return buf[0], err
}

// Reset implements Source; it never fails.
func (s *keptSource) Reset() error {
	s.rewind(s.t)
	return nil
}

// Close implements Source; it never fails.
func (s *keptSource) Close() error { return nil }

// expandSource is Folded.Open's Source.
type expandSource struct {
	keptCursor
	pos int // next tape entry
	// base[n] is the granule address (addr &^ 15) of node n's latest
	// access, which its silent repeats share. A Folded that keeps every
	// access may name any node up to 255.
	base [1 << 8]memory.Addr
}

// NextBatch implements BatchReader. The cursor lives in locals for the
// loop and goes back to s at its end.
func (s *expandSource) NextBatch(buf []Access) (int, error) {
	tape, kept, base := s.t.tape, s.t.kept, &s.base
	n := min(len(buf), len(tape)-s.pos)
	if n <= 0 {
		return 0, io.EOF
	}
	out := buf[:n]
	k, end, hi := s.k, s.end, s.hi
	for i, e := range tape[s.pos : s.pos+n] {
		if e == tapeKept {
			if k == end {
				s.k = k
				s.enterRun()
				end, hi = s.end, s.hi
			}
			r := kept[k]
			k++
			a := Access{Node: memory.NodeID(r.meta), Kind: Kind(r.meta >> metaKind & 1), Addr: hi | memory.Addr(r.lo)}
			base[a.Node] = a.Addr &^ (FoldGranule - 1)
			out[i] = a
			continue
		}
		node := memory.NodeID(e >> 5 & (memory.MaxNodes - 1))
		out[i] = Access{Node: node, Kind: Kind(e >> 4 & 1), Addr: base[node] | memory.Addr(e%FoldGranule)}
	}
	s.pos += n
	s.k = k
	return n, nil
}

// Next implements Source.
func (s *expandSource) Next() (Access, error) {
	var buf [1]Access
	_, err := s.NextBatch(buf[:])
	return buf[0], err
}

// rewind returns the source to the first access of t.
func (s *expandSource) rewind(t *Folded) {
	s.keptCursor.rewind(t)
	s.pos = 0
}

// Reset implements Source; it never fails.
func (s *expandSource) Reset() error {
	s.rewind(s.t)
	return nil
}

// Close implements Source; it never fails.
func (s *expandSource) Close() error { return nil }
