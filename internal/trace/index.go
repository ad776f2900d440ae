package trace

// Segment index for the version-3 trace format ("MTR3").
//
// An MTR3 file is an MTR2 record stream — same header, same
// head/zigzag-delta record encoding, same 0x00+count trailer — followed by
// a self-describing segment index:
//
//	magic    [4]byte "MTR3"
//	header   uvarint blockSize, pageSize, nodes      (as in MTR2)
//	records  uvarint head, uvarint addrDelta ...     (as in MTR2)
//	trailer  0x00, uvarint count                     (as in MTR2)
//	index    uvarint segCount
//	         per segment:
//	           uvarint byteOff     (file offset of the segment's first record)
//	           uvarint byteLen     (encoded length of the segment's records)
//	           uvarint count       (records in the segment)
//	           uvarint startAddr   (address the segment's first delta is
//	                                relative to: the previous record's
//	                                address, 0 for the first segment)
//	           uvarint crc32       (IEEE CRC-32 of the segment's record bytes)
//	footer   uint64le indexOff     (file offset of segCount)
//	         uint32le indexCrc     (IEEE CRC-32 of the index bytes)
//	         [4]byte  "MTRX"
//
// The writer cuts the record stream into segments of roughly
// DefaultSegmentBytes encoded bytes. Because every segment's start address
// rides in the index, a segment decodes independently of its predecessors:
// a reader seeds the delta chain from startAddr and decodes exactly count
// records from the byteLen bytes at byteOff — no replay of prior deltas.
// That is what lets N decoder goroutines work on one file through a shared
// io.ReaderAt (IndexedFileSource).
//
// The fixed-width footer at end-of-file locates the index without a
// sequential scan; its magic doubles as the truncation check (a partially
// copied MTR3 file has no footer and surfaces as ErrTruncated). Segment
// entries are validated to tile the record region exactly — contiguous,
// non-overlapping, ending at the trailer — and both the index and every
// segment carry a CRC, so a corrupt offset table surfaces as ErrCorrupt
// rather than a silent short or misaligned read.
//
// MTR3 is the only format a run reads. Decoder, the sequential reference
// reader, handles MTR3 by decoding the record stream exactly like MTR2 and
// then validating the index structurally.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"migratory/internal/memory"
)

var (
	magic3      = [4]byte{'M', 'T', 'R', '3'}
	footerMagic = [4]byte{'M', 'T', 'R', 'X'}
)

// footerSize is the fixed byte width of the MTR3 end-of-file footer.
const footerSize = 8 + 4 + 4

// DefaultSegmentBytes is the target encoded size of one MTR3 segment.
// Records average two to three encoded bytes, so a segment holds a few
// tens of thousands of accesses: coarse enough that the per-segment index
// entry and CRC are noise, fine enough that an eight-way parallel decode
// has real work per worker even on traces of a few hundred thousand
// accesses.
const DefaultSegmentBytes = 64 << 10

// maxIndexBytes bounds how much trailing index a sequential v3 decode will
// buffer; a structurally valid index is ~20 bytes per segment, so anything
// near this limit is garbage.
const maxIndexBytes = 1 << 26

// ErrNoIndex is wrapped by ReadIndex and the indexed-source constructors
// when the input is a pre-index trace format (MTR1 or MTR2). Runs cannot
// read those; the error names the conversion command (ConvertCommand).
var ErrNoIndex = errors.New("trace: no segment index (not an MTR3 file)")

// ConvertCommand is the command that re-encodes an MTR1/MTR2 trace as
// MTR3, named by every ErrNoIndex error.
const ConvertCommand = "tracegen -in old.mtr -o new.mtr"

// Segment describes one independently decodable slice of an MTR3 record
// stream.
type Segment struct {
	// Off is the file offset of the segment's first record byte.
	Off int64
	// Len is the encoded length of the segment's records in bytes.
	Len int64
	// Count is the number of records in the segment.
	Count uint64
	// StartAddr is the address the segment's first delta is relative to
	// (the address of the previous record; 0 for the first segment).
	StartAddr memory.Addr
	// StartIndex is the global index of the segment's first record,
	// derived from the preceding segments' counts.
	StartIndex uint64
	// CRC is the IEEE CRC-32 of the segment's record bytes.
	CRC uint32
}

// Index is the decoded segment index of an MTR3 file.
type Index struct {
	// Header is the trace geometry header.
	Header Header
	// Segments tile the record region in file order.
	Segments []Segment
	// Records is the total record count (the sum of the segment counts,
	// cross-checked against the stream trailer).
	Records uint64
}

// WriteIdentity writes the trace's content identity to w: its header, its
// record count, and each segment's count, start address and CRC. The CRCs
// cover every record byte, so a rewrite of the records changes the
// identity even when it keeps the file's size and mtime. RunConfig.Digest
// hashes it into the result-cache key, and FileID carries its SHA-256 into
// the segment-cache key.
func (idx *Index) WriteIdentity(w io.Writer) {
	hdr := idx.Header
	fmt.Fprintf(w, "\ntrace %d %d %d %d", hdr.BlockSize, hdr.PageSize, hdr.Nodes, idx.Records)
	for _, seg := range idx.Segments {
		fmt.Fprintf(w, "\nseg %d %d %d", seg.Count, seg.StartAddr, seg.CRC)
	}
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// headerEnd returns the file offset of the first record byte for a given
// header: magic plus the three header uvarints.
func (h Header) headerEnd() int64 {
	return int64(4 + uvarintLen(uint64(h.BlockSize)) + uvarintLen(uint64(h.PageSize)) + uvarintLen(uint64(h.Nodes)))
}

// indexUvarint decodes one uvarint from b at pos, failing with ErrCorrupt
// on an overlong or truncated varint.
func indexUvarint(b []byte, pos int, what string) (uint64, int, error) {
	v, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("trace: segment index %s: bad varint: %w", what, ErrCorrupt)
	}
	return v, pos + n, nil
}

// parseIndexEntries decodes and validates the index body (segCount followed
// by the per-segment entries). headerEnd and indexOff anchor the geometric
// validation: the segments must tile [headerEnd, trailer) contiguously and
// leave a plausible trailer gap before indexOff. The returned segments have
// StartIndex filled in.
func parseIndexEntries(body []byte, headerEnd, indexOff int64) ([]Segment, uint64, error) {
	segCount, pos, err := indexUvarint(body, 0, "segment count")
	if err != nil {
		return nil, 0, err
	}
	// Every entry is at least five single-byte uvarints.
	if segCount > uint64(len(body))/5+1 {
		return nil, 0, fmt.Errorf("trace: segment index claims %d segments in %d bytes: %w", segCount, len(body), ErrCorrupt)
	}
	segs := make([]Segment, 0, segCount)
	expectOff := headerEnd
	var total uint64
	for i := uint64(0); i < segCount; i++ {
		var off, length, count, startAddr, crc uint64
		if off, pos, err = indexUvarint(body, pos, "segment offset"); err != nil {
			return nil, 0, err
		}
		if length, pos, err = indexUvarint(body, pos, "segment length"); err != nil {
			return nil, 0, err
		}
		if count, pos, err = indexUvarint(body, pos, "segment record count"); err != nil {
			return nil, 0, err
		}
		if startAddr, pos, err = indexUvarint(body, pos, "segment start address"); err != nil {
			return nil, 0, err
		}
		if crc, pos, err = indexUvarint(body, pos, "segment crc"); err != nil {
			return nil, 0, err
		}
		if off > math.MaxInt64 || length > math.MaxInt64 || crc > math.MaxUint32 {
			return nil, 0, fmt.Errorf("trace: segment %d entry out of range: %w", i, ErrCorrupt)
		}
		seg := Segment{
			Off: int64(off), Len: int64(length), Count: count,
			StartAddr: memory.Addr(startAddr), StartIndex: total, CRC: uint32(crc),
		}
		// Segments must tile the record region exactly: an offset below the
		// expected position overlaps its predecessor, one above leaves a gap
		// of bytes no segment owns — either way the offset table lies about
		// the stream and a parallel decode would silently skip or re-read
		// records, so both are corruption.
		if seg.Off != expectOff {
			return nil, 0, fmt.Errorf("trace: segment %d starts at offset %d, want %d (overlapping or gapped segments): %w",
				i, seg.Off, expectOff, ErrCorrupt)
		}
		// A record is 2..20 encoded bytes (two uvarints of 1..10 bytes).
		if seg.Count == 0 || seg.Len < 2*int64(seg.Count) || seg.Len > 20*int64(seg.Count) {
			return nil, 0, fmt.Errorf("trace: segment %d claims %d records in %d bytes: %w", i, seg.Count, seg.Len, ErrCorrupt)
		}
		if i == 0 && seg.StartAddr != 0 {
			return nil, 0, fmt.Errorf("trace: first segment start address %#x (want 0): %w", seg.StartAddr, ErrCorrupt)
		}
		expectOff += seg.Len
		total += count
		segs = append(segs, seg)
	}
	if pos != len(body) {
		return nil, 0, fmt.Errorf("trace: %d trailing bytes after segment index entries: %w", len(body)-pos, ErrCorrupt)
	}
	// Between the last segment and the index sits the stream trailer: the
	// 0x00 terminator plus the count uvarint, 2..11 bytes.
	if gap := indexOff - expectOff; gap < 2 || gap > 1+binary.MaxVarintLen64 {
		return nil, 0, fmt.Errorf("trace: %d-byte gap between records and index (want the 2..11-byte trailer): %w", gap, ErrCorrupt)
	}
	return segs, total, nil
}

// ReadIndex reads and validates the segment index of an MTR3 trace of the
// given size. MTR1/MTR2 inputs return an error wrapping ErrNoIndex that
// names the converter; a missing or cut-off footer returns ErrTruncated; any
// structural lie — bad index CRC, overlapping or gapped segments,
// implausible entries, a trailer that disagrees — returns ErrCorrupt.
func ReadIndex(r io.ReaderAt, size int64) (*Index, error) {
	// Magic and geometry header.
	head := make([]byte, 4+3*binary.MaxVarintLen64)
	if size < int64(len(head)) {
		head = head[:size]
	}
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", coalesceEOF(err))
	}
	if len(head) < 4 {
		return nil, fmt.Errorf("trace: %d-byte input: %w", size, ErrTruncated)
	}
	var m [4]byte
	copy(m[:], head)
	switch m {
	case magic3:
	case magic2, magic:
		return nil, fmt.Errorf("%w: %s input; convert it with `%s`", ErrNoIndex, m[:], ConvertCommand)
	default:
		return nil, ErrBadMagic
	}
	pos := 4
	var geom [3]uint64
	for i, what := range []string{"header block size", "header page size", "header node count"} {
		if _, n := binary.Uvarint(head[pos:]); n == 0 {
			// head holds three full varints unless the file is shorter.
			return nil, fmt.Errorf("trace: %d-byte input ends inside the %s: %w", size, what, ErrTruncated)
		}
		v, p, err := indexUvarint(head, pos, what)
		if err != nil {
			return nil, err
		}
		geom[i], pos = v, p
	}
	const maxGeom = 1 << 30
	if geom[0] > maxGeom || geom[1] > maxGeom || geom[2] > memory.MaxNodes {
		return nil, fmt.Errorf("trace: implausible header (block %d, page %d, nodes %d): %w", geom[0], geom[1], geom[2], ErrCorrupt)
	}
	hdr := Header{BlockSize: int(geom[0]), PageSize: int(geom[1]), Nodes: int(geom[2])}
	headerEnd := int64(pos)

	// Footer: the record stream needs at least the 2-byte trailer after the
	// header, then the index body, then the footer.
	if size < headerEnd+2+1+footerSize {
		return nil, fmt.Errorf("trace: %d-byte MTR3 file has no room for a footer: %w", size, ErrTruncated)
	}
	var foot [footerSize]byte
	if _, err := r.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, fmt.Errorf("trace: reading footer: %w", coalesceEOF(err))
	}
	if *(*[4]byte)(foot[12:16]) != footerMagic {
		return nil, fmt.Errorf("trace: missing MTR3 footer magic (file cut before the index was written): %w", ErrTruncated)
	}
	indexOff64 := binary.LittleEndian.Uint64(foot[0:8])
	indexCrc := binary.LittleEndian.Uint32(foot[8:12])
	if indexOff64 > math.MaxInt64 {
		return nil, fmt.Errorf("trace: footer index offset %#x out of range: %w", indexOff64, ErrCorrupt)
	}
	indexOff := int64(indexOff64)
	if indexOff < headerEnd+2 || indexOff >= size-footerSize {
		return nil, fmt.Errorf("trace: footer index offset %d outside [%d, %d): %w", indexOff, headerEnd+2, size-footerSize, ErrCorrupt)
	}
	indexLen := size - footerSize - indexOff
	if indexLen > maxIndexBytes {
		return nil, fmt.Errorf("trace: implausible %d-byte segment index: %w", indexLen, ErrCorrupt)
	}
	body := make([]byte, indexLen)
	if _, err := r.ReadAt(body, indexOff); err != nil {
		return nil, fmt.Errorf("trace: reading segment index: %w", coalesceEOF(err))
	}
	if got := crc32.ChecksumIEEE(body); got != indexCrc {
		return nil, fmt.Errorf("trace: segment index crc %#x != footer %#x: %w", got, indexCrc, ErrCorrupt)
	}
	segs, total, err := parseIndexEntries(body, headerEnd, indexOff)
	if err != nil {
		return nil, err
	}

	// Cross-check the stream trailer the index claims sits between the last
	// segment and indexOff: terminator byte plus the total record count.
	trailerOff := headerEnd
	if n := len(segs); n > 0 {
		trailerOff = segs[n-1].Off + segs[n-1].Len
	}
	trailer := make([]byte, indexOff-trailerOff)
	if _, err := r.ReadAt(trailer, trailerOff); err != nil {
		return nil, fmt.Errorf("trace: reading trailer: %w", coalesceEOF(err))
	}
	if trailer[0] != 0 {
		return nil, fmt.Errorf("trace: trailer terminator byte %#x (want 0x00): %w", trailer[0], ErrCorrupt)
	}
	count, n := binary.Uvarint(trailer[1:])
	if n <= 0 || 1+n != len(trailer) {
		return nil, fmt.Errorf("trace: malformed trailer count: %w", ErrCorrupt)
	}
	if count != total {
		return nil, fmt.Errorf("trace: trailer count %d != segment index total %d: %w", count, total, ErrCorrupt)
	}
	return &Index{Header: hdr, Segments: segs, Records: total}, nil
}

// verifySegment checks data (the segment's record bytes) against the
// index entry's length and CRC.
func verifySegment(data []byte, seg Segment) error {
	if int64(len(data)) != seg.Len {
		return fmt.Errorf("trace: segment at %d: read %d of %d bytes: %w", seg.Off, len(data), seg.Len, ErrTruncated)
	}
	if got := crc32.ChecksumIEEE(data); got != seg.CRC {
		return fmt.Errorf("trace: segment at %d: crc %#x != index %#x: %w", seg.Off, got, seg.CRC, ErrCorrupt)
	}
	return nil
}

// decodeRecords decodes the seg.Count records in data, the segment's
// CRC-checked bytes, into out (exactly seg.Count long). The delta chain is
// seeded from the index entry's StartAddr, which is what makes segments
// independent of one another. All structural failures are ErrCorrupt: the
// bytes already passed the CRC, so a short or overlong stream means the
// index entry lied about the segment.
func decodeRecords(data []byte, seg Segment, nodes int, out []Access) error {
	pos := 0
	prev := seg.StartAddr
	for i := range out {
		var head uint64
		var hn int
		if pos < len(data) && data[pos] < 0x80 {
			head, hn = uint64(data[pos]), 1
		} else if head, hn = binary.Uvarint(data[pos:]); hn <= 0 {
			return fmt.Errorf("trace: segment at %d: bad record head varint: %w", seg.Off, ErrCorrupt)
		}
		if head == 0 {
			return fmt.Errorf("trace: segment at %d: terminator inside segment: %w", seg.Off, ErrCorrupt)
		}
		kn := head - 1
		node := kn >> 1
		if node > 0xFF || (nodes > 0 && node >= uint64(nodes)) {
			return fmt.Errorf("trace: segment at %d: impossible node %d: %w", seg.Off, node, ErrCorrupt)
		}
		p := pos + hn
		var enc uint64
		var en int
		if p < len(data) && data[p] < 0x80 {
			enc, en = uint64(data[p]), 1
		} else if enc, en = binary.Uvarint(data[p:]); en <= 0 {
			return fmt.Errorf("trace: segment at %d: bad record address varint: %w", seg.Off, ErrCorrupt)
		}
		delta := int64(enc>>1) ^ -int64(enc&1) // un-zigzag
		prev = memory.Addr(int64(prev) + delta)
		out[i] = Access{Node: memory.NodeID(node), Kind: Kind(kn & 1), Addr: prev}
		pos = p + en
	}
	if pos != len(data) {
		return fmt.Errorf("trace: segment at %d: %d bytes after final record: %w", seg.Off, len(data)-pos, ErrCorrupt)
	}
	return nil
}
