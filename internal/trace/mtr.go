package trace

// Streaming binary trace record stream, shared by MTR2 and MTR3:
//
//	magic    [4]byte "MTR2" (or "MTR3", see index.go)
//	header   uvarint blockSize   (0 = unspecified)
//	         uvarint pageSize    (0 = unspecified)
//	         uvarint nodes       (0 = unspecified)
//	records  per access:
//	         uvarint head        ((node<<1 | kind) + 1; never zero)
//	         uvarint addrDelta   (zigzag-encoded signed delta from the
//	                              previous record's address; first record
//	                              is a delta from address 0)
//	trailer  0x00                (terminator; impossible as a record head)
//	         uvarint count       (number of records, as an integrity check)
//
// Consecutive accesses tend to be near one another in the address space, so
// the zigzag deltas keep most records to two or three bytes versus MTR1's
// fixed ten. Every truncation is detectable: cutting the stream mid-varint
// leaves a byte with the continuation bit set and no successor, cutting
// between records removes the terminator/count trailer, and both cases
// surface as ErrTruncated.
//
// Version 3 ("MTR3", see index.go) keeps this record stream byte for byte
// and appends a segment index + footer after the trailer, so segments can
// be decoded independently and in parallel. The Writer emits v3 only, and
// v3 is the only format a run reads (IndexedFileSource). MTR2 and the
// fixed-record MTR1 (trace.go) are conversion input: Decoder reads all
// three sequentially, and `tracegen -in old.mtr -o new.mtr` re-encodes
// them as v3.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"migratory/internal/memory"
)

var magic2 = [4]byte{'M', 'T', 'R', '2'}

// ErrTruncated is wrapped by decode errors caused by an input that ends
// before the trace's trailer, e.g. a partially copied file.
var ErrTruncated = errors.New("trace: truncated trace file")

// ErrCorrupt is wrapped by decode errors caused by structurally invalid
// input: overlong varints, impossible node numbers, a record count that
// disagrees with the trailer, or trailing garbage.
var ErrCorrupt = errors.New("trace: corrupt trace file")

// Header carries the trace geometry recorded in an MTR2/MTR3 file. Zero
// fields mean the writer did not specify them; version-1 files always
// decode to a zero Header.
type Header struct {
	BlockSize int // block size in bytes, 0 if unspecified
	PageSize  int // page size in bytes, 0 if unspecified
	Nodes     int // number of nodes, 0 if unspecified
}

// Geometry returns the header's block/page geometry, if fully specified
// and valid.
func (h Header) Geometry() (memory.Geometry, bool) {
	if h.BlockSize == 0 || h.PageSize == 0 {
		return memory.Geometry{}, false
	}
	g, err := memory.NewGeometry(h.BlockSize, h.PageSize)
	if err != nil {
		return memory.Geometry{}, false
	}
	return g, true
}

// WriterOptions selects the output format of a Writer.
type WriterOptions struct {
	// Version is the trace format version: 0 (the latest) or 3, the only
	// version written.
	Version int
	// SegmentBytes is the target encoded size of one segment (0 =
	// DefaultSegmentBytes). Segments close at the first record boundary at
	// or past the target, so a segment can exceed it by one record's
	// encoding.
	SegmentBytes int
}

// Writer encodes accesses to the MTR3 format. Close must be called to emit
// the trailer, the segment index and the footer; a stream without them
// reads back as ErrTruncated.
//
// The records of the open segment are appended to one buffer. When the
// segment closes, its CRC is computed over the buffer once and the buffer
// goes to the sink in one Write, so the Writer holds one segment in memory
// (the segment target, 64 KiB by default, plus one record), as the indexed
// reader holds one decoded segment per slab. A sink error is sticky: Close and
// every later Write return it.
type Writer struct {
	w      io.Writer
	hdr    Header
	prev   memory.Addr
	count  uint64
	err    error
	closed bool

	// buf holds the bytes not yet written to w: the open segment's records,
	// after the header before the first segment closes. off is the file
	// offset of buf[0]; seg.Off that of the open segment's first record.
	buf      []byte
	off      int64
	segBytes int64
	inSeg    bool
	seg      Segment
	segs     []Segment
}

// NewWriter returns a Writer emitting to w with default segmenting. The
// header is buffered with the first segment. Header fields may be zero
// (unspecified), but a negative field or a Nodes beyond memory.MaxNodes is
// rejected at the first Write.
func NewWriter(w io.Writer, hdr Header) *Writer {
	return NewWriterOptions(w, hdr, WriterOptions{})
}

// NewWriterOptions is NewWriter with an explicit segment target.
func NewWriterOptions(w io.Writer, hdr Header, opts WriterOptions) *Writer {
	tw := &Writer{w: w, hdr: hdr}
	if opts.Version != 0 && opts.Version != 3 {
		tw.err = fmt.Errorf("trace: unsupported writer format version %d (want 3)", opts.Version)
		return tw
	}
	tw.segBytes = int64(opts.SegmentBytes)
	if tw.segBytes <= 0 {
		tw.segBytes = DefaultSegmentBytes
	}
	if hdr.BlockSize < 0 || hdr.PageSize < 0 || hdr.Nodes < 0 || hdr.Nodes > memory.MaxNodes {
		tw.err = fmt.Errorf("trace: invalid header %+v", hdr)
		return tw
	}
	// The slack holds the header and the record that crosses the target.
	tw.buf = make([]byte, 0, min(tw.segBytes, DefaultSegmentBytes)+64)
	tw.buf = append(tw.buf, magic3[:]...)
	tw.buf = binary.AppendUvarint(tw.buf, uint64(hdr.BlockSize))
	tw.buf = binary.AppendUvarint(tw.buf, uint64(hdr.PageSize))
	tw.buf = binary.AppendUvarint(tw.buf, uint64(hdr.Nodes))
	return tw
}

// flush writes the buffer to the sink and empties it.
func (w *Writer) flush() {
	if w.err == nil {
		var n int
		if n, w.err = w.w.Write(w.buf); w.err == nil && n < len(w.buf) {
			w.err = io.ErrShortWrite
		}
	}
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
}

// closeSegment finishes the open segment and files its index entry.
func (w *Writer) closeSegment() {
	if !w.inSeg {
		return
	}
	rec := w.buf[w.seg.Off-w.off:]
	w.seg.Len = int64(len(rec))
	w.seg.CRC = crc32.ChecksumIEEE(rec)
	w.segs = append(w.segs, w.seg)
	w.inSeg = false
}

// Write appends one access to the stream.
func (w *Writer) Write(a Access) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = errors.New("trace: Write after Close")
		return w.err
	}
	if a.Kind > Write {
		w.err = fmt.Errorf("trace: cannot encode access with kind %v", a.Kind)
		return w.err
	}
	if a.Fold != 0 {
		w.err = fmt.Errorf("trace: cannot encode %v: %w", a, ErrFolded)
		return w.err
	}
	if w.hdr.Nodes > 0 && int(a.Node) >= w.hdr.Nodes {
		w.err = fmt.Errorf("trace: access node %d outside header node count %d", a.Node, w.hdr.Nodes)
		return w.err
	}
	if !w.inSeg {
		// Open a segment at the current record boundary. StartAddr is the
		// running delta base, so an indexed reader can decode the segment
		// without replaying anything before it.
		w.seg = Segment{Off: w.off + int64(len(w.buf)), StartAddr: w.prev, StartIndex: w.count}
		w.inSeg = true
	}
	w.buf = binary.AppendUvarint(w.buf, (uint64(a.Node)<<1|uint64(a.Kind))+1)
	delta := int64(a.Addr) - int64(w.prev)
	w.buf = binary.AppendUvarint(w.buf, uint64(delta<<1)^uint64(delta>>63)) // zigzag
	w.prev = a.Addr
	w.count++
	w.seg.Count++
	if w.off+int64(len(w.buf))-w.seg.Off >= w.segBytes {
		w.closeSegment()
		w.flush()
	}
	return w.err
}

// Close writes the trailer, the segment index and the footer with the last
// segment, in one Write. It does not close the underlying io.Writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	w.closeSegment()
	w.buf = append(w.buf, 0)
	w.buf = binary.AppendUvarint(w.buf, w.count)
	indexOff := w.off + int64(len(w.buf))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(w.segs)))
	for _, s := range w.segs {
		w.buf = binary.AppendUvarint(w.buf, uint64(s.Off))
		w.buf = binary.AppendUvarint(w.buf, uint64(s.Len))
		w.buf = binary.AppendUvarint(w.buf, s.Count)
		w.buf = binary.AppendUvarint(w.buf, uint64(s.StartAddr))
		w.buf = binary.AppendUvarint(w.buf, uint64(s.CRC))
	}
	crc := crc32.ChecksumIEEE(w.buf[indexOff-w.off:])
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(indexOff))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc)
	w.buf = append(w.buf, footerMagic[:]...)
	w.flush()
	return w.err
}

// Copy streams every access from r into w and returns the number copied.
// It does not Close the Writer; the caller decides when the trailer goes
// out.
//
// Reading and encoding overlap: a second goroutine fills DefaultBatchSize
// batches from r (FillBatch) while the calling goroutine encodes the
// previous ones with w.Write, three pooled batches cycling between the two.
// The result is the sequential loop's: the count of accesses written and
// the first error in stream order, so a read error is returned only after
// every access before it has been written. A write error stops the reader
// before its next batch. The reader goroutine has exited when Copy
// returns, so the caller may use r again at once (Reset it, say).
func Copy(w *Writer, r Reader) (int, error) {
	type batch struct {
		accs []Access
		n    int
		err  error
	}
	// One batch being filled, one being encoded and one waiting between
	// them. Both channels hold every batch, so no send blocks; free is never
	// closed, the reader returning on its own.
	const depth = 3
	free := make(chan *batch, depth)
	full := make(chan *batch, depth)
	stop := make(chan struct{})
	for range depth {
		free <- &batch{accs: GetBatch()}
	}
	go func() {
		defer close(full)
		for b := range free {
			select {
			case <-stop:
				free <- b // back to the pool
				return
			default:
			}
			b.n, b.err = FillBatch(r, b.accs)
			full <- b
			if b.err != nil {
				return
			}
		}
	}()
	n := 0
	var err error
	for b := range full {
		if err == nil {
			for _, a := range b.accs[:b.n] {
				if err = w.Write(a); err != nil {
					close(stop)
					break
				}
				n++
			}
			if err == nil && b.err != nil && !errors.Is(b.err, io.EOF) {
				err = b.err
			}
		}
		free <- b
	}
	for range depth {
		PutBatch((<-free).accs)
	}
	return n, err
}

// Decoder reads a binary trace (MTR3, MTR2, or the legacy MTR1 format)
// sequentially, one record at a time, with every structural check the
// formats allow. It is not how runs read traces (they need MTR3, through
// IndexedFileSource): it is the input side of converting pre-index traces
// to MTR3, and the independent reference the indexed reader is tested
// against. MTR3 input decodes like MTR2, then its segment index is
// validated structurally and discarded.
type Decoder struct {
	br        *bufio.Reader
	hdr       Header
	legacy    bool   // MTR1 input
	indexed   bool   // MTR3 input: a segment index follows the trailer
	remaining uint64 // MTR1: records left
	prev      memory.Addr
	count     uint64
	done      bool
}

// NewDecoder reads the magic and header from r and returns a Decoder
// positioned at the first record.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{br: bufio.NewReader(r)}
	var m [4]byte
	if _, err := io.ReadFull(d.br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", coalesceEOF(err))
	}
	switch m {
	case magic2, magic3:
		d.indexed = m == magic3
		bs, err := d.uvarint("header block size")
		if err != nil {
			return nil, err
		}
		ps, err := d.uvarint("header page size")
		if err != nil {
			return nil, err
		}
		nodes, err := d.uvarint("header node count")
		if err != nil {
			return nil, err
		}
		const maxGeom = 1 << 30
		if bs > maxGeom || ps > maxGeom || nodes > memory.MaxNodes {
			return nil, fmt.Errorf("trace: implausible header (block %d, page %d, nodes %d): %w", bs, ps, nodes, ErrCorrupt)
		}
		d.hdr = Header{BlockSize: int(bs), PageSize: int(ps), Nodes: int(nodes)}
	case magic:
		d.legacy = true
		var cnt [8]byte
		if _, err := io.ReadFull(d.br, cnt[:]); err != nil {
			return nil, fmt.Errorf("trace: reading count: %w", coalesceEOF(err))
		}
		d.remaining = binary.LittleEndian.Uint64(cnt[:])
		const sanityMax = 1 << 32
		if d.remaining > sanityMax {
			return nil, fmt.Errorf("trace: implausible record count %d: %w", d.remaining, ErrCorrupt)
		}
	default:
		return nil, ErrBadMagic
	}
	return d, nil
}

// coalesceEOF folds the two flavors of premature end-of-input into
// ErrTruncated; other errors pass through.
func coalesceEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

func (d *Decoder) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, fmt.Errorf("trace: reading %s: %w", what, coalesceEOF(err))
		}
		return 0, fmt.Errorf("trace: reading %s: %w: %v", what, ErrCorrupt, err)
	}
	return v, nil
}

// Header returns the geometry header (zero for legacy MTR1 input).
func (d *Decoder) Header() Header { return d.hdr }

// recordErr wraps a varint read failure with the record position it
// happened at. Building the context string only here keeps fmt.Sprintf off
// the per-record success path.
func (d *Decoder) recordErr(what string, err error) error {
	what = fmt.Sprintf("record %d %s", d.count, what)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("trace: reading %s: %w", what, coalesceEOF(err))
	}
	return fmt.Errorf("trace: reading %s: %w: %v", what, ErrCorrupt, err)
}

// finishTrailer validates the count trailer after the 0x00 terminator and
// demands a clean EOF — except for MTR3 input, where the segment index and
// footer legitimately follow and are validated instead. On success it
// marks the decoder done.
func (d *Decoder) finishTrailer() error {
	n, err := d.uvarint("trailer count")
	if err != nil {
		return err
	}
	if n != d.count {
		return fmt.Errorf("trace: trailer count %d != %d records decoded: %w", n, d.count, ErrCorrupt)
	}
	if d.indexed {
		if err := d.finishIndex(); err != nil {
			return err
		}
		d.done = true
		return nil
	}
	if _, err := d.br.ReadByte(); err == nil {
		return fmt.Errorf("trace: trailing bytes after trailer: %w", ErrCorrupt)
	} else if !errors.Is(err, io.EOF) {
		return err
	}
	d.done = true
	return nil
}

// finishIndex consumes and validates the MTR3 segment index and footer
// that trail the record stream, so a sequential decode of a v3 file keeps
// the "every truncation or corruption is detected" property end to end.
// The stream gives no random access, so the validation is structural: the
// footer magic and index CRC must check out, the entries must parse, tile
// the record region for this header, and sum to the count just verified.
func (d *Decoder) finishIndex() error {
	rest, err := io.ReadAll(io.LimitReader(d.br, maxIndexBytes+1))
	if err != nil {
		return fmt.Errorf("trace: reading segment index: %w", err)
	}
	if len(rest) > maxIndexBytes {
		return fmt.Errorf("trace: implausible %d-byte segment index: %w", len(rest), ErrCorrupt)
	}
	if len(rest) < footerSize+1 {
		return fmt.Errorf("trace: %d bytes after trailer (want segment index + footer): %w", len(rest), ErrTruncated)
	}
	foot := rest[len(rest)-footerSize:]
	if *(*[4]byte)(foot[12:16]) != footerMagic {
		// A footer magic somewhere inside the tail but not at the very end
		// means the writer finished and something appended bytes after it;
		// no magic at all means the file was cut mid-index.
		if i := bytes.LastIndex(rest, footerMagic[:]); i >= 0 {
			return fmt.Errorf("trace: %d trailing bytes after MTR3 footer: %w", len(rest)-i-len(footerMagic), ErrCorrupt)
		}
		return fmt.Errorf("trace: missing MTR3 footer magic (file cut before the index was written): %w", ErrTruncated)
	}
	body := rest[:len(rest)-footerSize]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(foot[8:12]); got != want {
		return fmt.Errorf("trace: segment index crc %#x != footer %#x: %w", got, want, ErrCorrupt)
	}
	indexOff := binary.LittleEndian.Uint64(foot[0:8])
	if indexOff > 1<<62 {
		return fmt.Errorf("trace: footer index offset %#x out of range: %w", indexOff, ErrCorrupt)
	}
	_, total, err := parseIndexEntries(body, d.hdr.headerEnd(), int64(indexOff))
	if err != nil {
		return err
	}
	if total != d.count {
		return fmt.Errorf("trace: segment index total %d != %d records decoded: %w", total, d.count, ErrCorrupt)
	}
	return nil
}

// Next returns the next access, or io.EOF after the final one. Any other
// error wraps ErrTruncated or ErrCorrupt.
func (d *Decoder) Next() (Access, error) {
	if d.done {
		return Access{}, io.EOF
	}
	if d.legacy {
		return d.nextLegacy()
	}
	head, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Access{}, d.recordErr("head", err)
	}
	if head == 0 {
		if err := d.finishTrailer(); err != nil {
			return Access{}, err
		}
		return Access{}, io.EOF
	}
	kn := head - 1
	node := kn >> 1
	if node > 0xFF || (d.hdr.Nodes > 0 && node >= uint64(d.hdr.Nodes)) {
		return Access{}, fmt.Errorf("trace: record %d has impossible node %d: %w", d.count, node, ErrCorrupt)
	}
	enc, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Access{}, d.recordErr("address", err)
	}
	delta := int64(enc>>1) ^ -int64(enc&1) // un-zigzag
	addr := memory.Addr(int64(d.prev) + delta)
	d.prev = addr
	d.count++
	return Access{Node: memory.NodeID(node), Kind: Kind(kn & 1), Addr: addr}, nil
}

func (d *Decoder) nextLegacy() (Access, error) {
	if d.remaining == 0 {
		d.done = true
		return Access{}, io.EOF
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(d.br, rec[:]); err != nil {
		return Access{}, fmt.Errorf("trace: reading record %d: %w", d.count, coalesceEOF(err))
	}
	d.remaining--
	d.count++
	return Access{
		Node: memory.NodeID(rec[0]),
		Kind: Kind(rec[1]),
		Addr: memory.Addr(binary.LittleEndian.Uint64(rec[2:])),
	}, nil
}
