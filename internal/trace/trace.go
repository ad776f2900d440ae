// Package trace defines the shared-memory access traces that drive every
// simulator in this repository, together with a compact binary codec and
// summary statistics.
//
// The paper drove its simulators with Tango-generated traces of five SPLASH
// programs; those traces "include accesses to ordinary shared data, but
// exclude accesses to synchronization variables, private data, and
// instructions" (§3.2). Our traces have the same shape: a sequence of
// (node, read|write, address) records over the shared address space, in a
// single global interleaving.
package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"migratory/internal/memory"
)

// Kind distinguishes read accesses from write accesses.
type Kind uint8

const (
	// Read is a load from shared memory.
	Read Kind = iota
	// Write is a store to shared memory.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is one shared-memory reference by one node.
type Access struct {
	Node memory.NodeID
	Kind Kind
	Addr memory.Addr
}

// String renders an access for diagnostics, e.g. "P3 write 0x1040".
func (a Access) String() string {
	return fmt.Sprintf("P%d %s %#x", a.Node, a.Kind, a.Addr)
}

// Reader yields successive accesses. Next returns io.EOF after the final
// access.
type Reader interface {
	Next() (Access, error)
}

// DefaultBatchSize is the chunk size the simulators pull accesses in. A
// 4096-entry batch of 16-byte Access records is 64 KiB — big enough to
// amortize the per-batch interface call and the hoisted cancellation and
// probe checks down to noise, small enough to stay cache-friendly and keep
// per-worker buffers cheap under Options.Parallelism.
const DefaultBatchSize = 4096

// BatchReader is implemented by readers that can deliver accesses in bulk.
// NextBatch fills buf with up to len(buf) accesses and returns how many it
// wrote. Like io.Reader, it may return n > 0 alongside a non-nil error
// (including io.EOF when the stream ends mid-batch); callers must process
// the n accesses before looking at the error. After the final access it
// returns (0, io.EOF).
//
// All Sources in this package implement BatchReader; external Reader
// implementations are adapted by FillBatch.
type BatchReader interface {
	NextBatch(buf []Access) (int, error)
}

// FillBatch reads up to len(buf) accesses from r into buf. It uses r's own
// NextBatch when r implements BatchReader and otherwise falls back to
// repeated Next calls, so callers can batch over any Reader. The semantics
// match BatchReader.NextBatch.
func FillBatch(r Reader, buf []Access) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.NextBatch(buf)
	}
	n := 0
	for n < len(buf) {
		a, err := r.Next()
		if err != nil {
			return n, err
		}
		buf[n] = a
		n++
	}
	return n, nil
}

// EachBatch is the engines' batch-pull loop: it feeds src to run in
// DefaultBatchSize chunks, base being the stream index of the chunk's
// first access. A SliceSource is chunked in place; any other source is
// read through FillBatch into one pooled buffer. The context is checked
// once per chunk, never per access, so a cancelled ctx returns ctx.Err()
// within DefaultBatchSize accesses; a nil ctx never cancels. run's errors
// return as they are, source errors wrapped as "<name>: trace source at
// access N", and EOF ends the loop with nil.
func EachBatch(ctx context.Context, src Reader, name string, run func(batch []Access, base int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ss, ok := src.(*SliceSource); ok {
		rest := ss.Rest()
		for off := 0; ; off += DefaultBatchSize {
			if err := ctx.Err(); err != nil {
				return err
			}
			if off >= len(rest) {
				return nil
			}
			if err := run(rest[off:min(off+DefaultBatchSize, len(rest))], off); err != nil {
				return err
			}
		}
	}
	buf := GetBatch()
	defer PutBatch(buf)
	off := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := FillBatch(src, buf)
		if n > 0 {
			if rerr := run(buf[:n], off); rerr != nil {
				return rerr
			}
			off += n
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: trace source at access %d: %w", name, off, err)
		}
	}
}

// batchPool recycles DefaultBatchSize access buffers across runs so a
// parallel sweep's steady state allocates no per-cell batch buffers.
var batchPool = sync.Pool{
	New: func() any {
		buf := make([]Access, DefaultBatchSize)
		return &buf
	},
}

// GetBatch returns a DefaultBatchSize buffer from a shared pool. Return it
// with PutBatch when the run is done.
func GetBatch() []Access {
	return *batchPool.Get().(*[]Access)
}

// PutBatch returns a buffer obtained from GetBatch to the pool. Undersized
// buffers are dropped; caller-grown buffers are clamped back to
// DefaultBatchSize capacity so every pooled buffer stays uniform.
func PutBatch(buf []Access) {
	if cap(buf) < DefaultBatchSize {
		return
	}
	buf = buf[:DefaultBatchSize:DefaultBatchSize]
	batchPool.Put(&buf)
}

// Source is a pull-based stream of accesses that can be replayed. Every
// simulator in the repository consumes traces through this interface, so a
// trace never has to be materialized as a slice: it may live in memory
// (SliceSource), be generated lazily (workload.Source), or be decoded from
// a binary file (FileSource).
//
// Next returns io.EOF after the final access. Reset rewinds the stream to
// the first access; trace-driven simulation is two-pass (page placement,
// then protocol simulation), so rewinding is part of the normal workflow.
// Close releases any underlying resources; after Close the source must not
// be used.
type Source interface {
	Reader
	Reset() error
	Close() error
}

// SliceSource adapts an in-memory access sequence to the Source interface.
type SliceSource struct {
	accesses []Access
	pos      int
}

// NewSliceSource returns a Source over the given accesses. The slice is
// not copied; the caller must not mutate it while reading.
func NewSliceSource(accesses []Access) *SliceSource {
	return &SliceSource{accesses: accesses}
}

// Next implements Source.
func (s *SliceSource) Next() (Access, error) {
	if s.pos >= len(s.accesses) {
		return Access{}, io.EOF
	}
	a := s.accesses[s.pos]
	s.pos++
	return a, nil
}

// NextBatch implements BatchReader by copying straight out of the backing
// slice.
func (s *SliceSource) NextBatch(buf []Access) (int, error) {
	n := copy(buf, s.accesses[s.pos:])
	s.pos += n
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Reset implements Source; it never fails.
func (s *SliceSource) Reset() error {
	s.pos = 0
	return nil
}

// Close implements Source; it never fails.
func (s *SliceSource) Close() error { return nil }

// Len returns the total number of accesses.
func (s *SliceSource) Len() int { return len(s.accesses) }

// Rest returns the not-yet-consumed tail of the underlying slice and marks
// the source as drained. The protocol engines use it as a fast path: when a
// Source is really a slice they iterate the slice directly instead of
// paying an interface call per access.
func (s *SliceSource) Rest() []Access {
	rest := s.accesses[s.pos:]
	s.pos = len(s.accesses)
	return rest
}

// ReadAll drains a Reader into a slice.
func ReadAll(r Reader) ([]Access, error) {
	var out []Access
	for {
		a, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
}

// Binary trace format:
//
//	magic   [4]byte  "MTR1"
//	count   uint64   number of records
//	records          count * (node uint8, kind uint8, addr uint64), little endian
//
// The format is deliberately trivial: traces are an interchange artifact
// between cmd/tracegen and the simulators, not an archival format.

var magic = [4]byte{'M', 'T', 'R', '1'}

const recordSize = 1 + 1 + 8

// ErrBadMagic is returned by ReadFrom when the input does not begin with
// the trace file magic.
var ErrBadMagic = errors.New("trace: bad magic (not a trace file)")

// WriteTo encodes accesses to w in the binary trace format.
func WriteTo(w io.Writer, accesses []Access) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(accesses)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [recordSize]byte
	for _, a := range accesses {
		rec[0] = byte(a.Node)
		rec[1] = byte(a.Kind)
		binary.LittleEndian.PutUint64(rec[2:], uint64(a.Addr))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFrom decodes a binary trace written by WriteTo.
func ReadFrom(r io.Reader) ([]Access, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	const sanityMax = 1 << 32
	if count > sanityMax {
		return nil, fmt.Errorf("trace: implausible record count %d: %w", count, ErrCorrupt)
	}
	out := make([]Access, 0, count)
	var rec [recordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d of %d: %w", i, count, err)
		}
		out = append(out, Access{
			Node: memory.NodeID(rec[0]),
			Kind: Kind(rec[1]),
			Addr: memory.Addr(binary.LittleEndian.Uint64(rec[2:])),
		})
	}
	return out, nil
}
