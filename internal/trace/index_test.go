package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"migratory/internal/memory"
)

// indexTestAccesses builds a stream long enough to span several segments
// at the given target segment size.
func indexTestAccesses(n int) []Access {
	accs := make([]Access, n)
	for i := range accs {
		accs[i] = Access{
			Node: memory.NodeID(i % 8),
			Kind: Kind(i % 2),
			Addr: memory.Addr((i*7919 + (i%13)*1<<20) % (1 << 24)),
		}
	}
	return accs
}

// encodeMTR3 encodes accs as a v3 image with a small segment target, so
// even short test traces have several segments.
func encodeMTR3(t *testing.T, hdr Header, accs []Access, segBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, hdr, WriterOptions{Version: 3, SegmentBytes: segBytes})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMTR3IndexRoundTrip(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 8}
	accs := indexTestAccesses(10_000)
	data := encodeMTR3(t, hdr, accs, 2048)

	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Header != hdr {
		t.Fatalf("index header %+v, want %+v", idx.Header, hdr)
	}
	if idx.Records != uint64(len(accs)) {
		t.Fatalf("index records %d, want %d", idx.Records, len(accs))
	}
	if len(idx.Segments) < 4 {
		t.Fatalf("got %d segments at a 2048-byte target over %d bytes, want several", len(idx.Segments), len(data))
	}

	// Segments tile the record region and carry correct per-segment state:
	// decoding each independently reproduces exactly its slice of the trace.
	var total uint64
	expectOff := hdr.headerEnd()
	for i, seg := range idx.Segments {
		if seg.Off != expectOff {
			t.Fatalf("segment %d at offset %d, want %d", i, seg.Off, expectOff)
		}
		if seg.StartIndex != total {
			t.Fatalf("segment %d StartIndex %d, want %d", i, seg.StartIndex, total)
		}
		raw := data[seg.Off : seg.Off+seg.Len]
		if err := verifySegment(raw, seg); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		got := make([]Access, seg.Count)
		if err := decodeRecords(raw, seg, hdr.Nodes, got); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		want := accs[seg.StartIndex : seg.StartIndex+seg.Count]
		if len(got) != len(want) {
			t.Fatalf("segment %d decoded %d records, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("segment %d record %d: %+v != %+v", i, j, got[j], want[j])
			}
		}
		expectOff += seg.Len
		total += seg.Count
	}
	if total != uint64(len(accs)) {
		t.Fatalf("segment counts sum to %d, want %d", total, len(accs))
	}

	// The sequential decoder reads the same stream (and validates the
	// index structurally on the way out).
	got, err := readSequential(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("sequential decode: %d accesses, want %d", len(got), len(accs))
	}
	for i := range got {
		if got[i] != accs[i] {
			t.Fatalf("sequential decode access %d: %+v != %+v", i, got[i], accs[i])
		}
	}
}

// TestMTRVersionMatrix pins the format contract: the sequential reader
// decodes all three versions to the same accesses, so it can convert any
// of them; the one path opener reads v3 to those same accesses; and v1/v2
// files, through the path opener and the in-memory one alike, fail with
// ErrNoIndex naming the converter.
func TestMTRVersionMatrix(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 8}
	accs := indexTestAccesses(3000)
	v3img := encodeMTR3(t, hdr, accs, 2048)
	var v1img bytes.Buffer
	if err := WriteTo(&v1img, accs); err != nil {
		t.Fatal(err)
	}
	images := []struct {
		name string
		data []byte
	}{{"v1", v1img.Bytes()}, {"v2", toMTR2(v3img)}, {"v3", v3img}}

	dir := t.TempDir()
	check := func(name string, got []Access, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(accs) {
			t.Fatalf("%s: decoded %d accesses, want %d", name, len(got), len(accs))
		}
		for i := range got {
			if got[i] != accs[i] {
				t.Fatalf("%s: access %d: %+v != %+v", name, i, got[i], accs[i])
			}
		}
	}
	for _, im := range images {
		got, err := readSequential(im.data)
		check(im.name+" sequential", got, err)

		path := filepath.Join(dir, im.name+".mtr")
		if err := os.WriteFile(path, im.data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenFileParallelCache(path, 4, nil)
		if im.name != "v3" {
			wantConvertError(t, im.name+" path opener", err)
			_, err = readIndexed(im.data)
			wantConvertError(t, im.name+" in-memory opener", err)
			continue
		}
		if err != nil {
			t.Fatalf("%s parallel: %v", im.name, err)
		}
		got, err = ReadAll(src)
		check(im.name+" parallel", got, err)
		if err := src.Close(); err != nil {
			t.Fatalf("%s: close: %v", im.name, err)
		}
	}
}

// rebuildIndex re-encodes a (possibly mutated) index over the original
// record stream, with a consistent index CRC and footer, so tests can
// construct structural lies that only the entry validation can catch.
func rebuildIndex(t *testing.T, data []byte, mutate func(idx *Index)) []byte {
	t.Helper()
	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	mutate(idx)
	last := idx.Segments[len(idx.Segments)-1]
	// The record stream plus trailer is everything before the old index.
	foot := data[len(data)-footerSize:]
	oldIndexOff := binary.LittleEndian.Uint64(foot[0:8])
	stream := data[:oldIndexOff]
	_ = last

	body := binary.AppendUvarint(nil, uint64(len(idx.Segments)))
	for _, seg := range idx.Segments {
		body = binary.AppendUvarint(body, uint64(seg.Off))
		body = binary.AppendUvarint(body, uint64(seg.Len))
		body = binary.AppendUvarint(body, seg.Count)
		body = binary.AppendUvarint(body, uint64(seg.StartAddr))
		body = binary.AppendUvarint(body, uint64(seg.CRC))
	}
	out := append([]byte{}, stream...)
	out = append(out, body...)
	var newFoot [footerSize]byte
	binary.LittleEndian.PutUint64(newFoot[0:8], oldIndexOff)
	binary.LittleEndian.PutUint32(newFoot[8:12], crc32.ChecksumIEEE(body))
	copy(newFoot[12:16], footerMagic[:])
	return append(out, newFoot[:]...)
}

func TestReadIndexRejectsCorruption(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 8}
	accs := indexTestAccesses(5000)
	valid := encodeMTR3(t, hdr, accs, 2048)

	read := func(data []byte) error {
		_, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		return err
	}
	if err := read(valid); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}

	t.Run("truncations", func(t *testing.T) {
		// Any prefix of the image must fail typed — never decode cleanly.
		for _, cut := range []int{0, 3, 10, len(valid) / 2, len(valid) - footerSize - 1, len(valid) - footerSize, len(valid) - 4, len(valid) - 1} {
			err := read(valid[:cut])
			if err == nil {
				t.Fatalf("cut at %d/%d read cleanly", cut, len(valid))
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut at %d: untyped error %v", cut, err)
			}
		}
	})

	t.Run("bad footer magic", func(t *testing.T) {
		data := append([]byte{}, valid...)
		data[len(data)-1] ^= 0xFF
		if err := read(data); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})

	t.Run("bad index crc", func(t *testing.T) {
		data := append([]byte{}, valid...)
		data[len(data)-footerSize-1] ^= 0x01 // last index body byte
		if err := read(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("footer offset out of range", func(t *testing.T) {
		data := append([]byte{}, valid...)
		binary.LittleEndian.PutUint64(data[len(data)-footerSize:], uint64(len(data)))
		if err := read(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("overlapping segments", func(t *testing.T) {
		data := rebuildIndex(t, valid, func(idx *Index) {
			idx.Segments[1].Off -= 2 // bites into segment 0
		})
		if err := read(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("gapped segments", func(t *testing.T) {
		data := rebuildIndex(t, valid, func(idx *Index) {
			idx.Segments[1].Off += 2 // leaves 2 unowned bytes
		})
		if err := read(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("zero-count segment", func(t *testing.T) {
		data := rebuildIndex(t, valid, func(idx *Index) {
			idx.Segments[2].Count = 0
		})
		if err := read(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("nonzero first start address", func(t *testing.T) {
		data := rebuildIndex(t, valid, func(idx *Index) {
			idx.Segments[0].StartAddr = 64
		})
		if err := read(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("trailer count mismatch", func(t *testing.T) {
		data := rebuildIndex(t, valid, func(idx *Index) {
			idx.Segments[len(idx.Segments)-1].Count++
		})
		// The last segment now claims one extra record: either the
		// byte-per-record sanity or the trailer cross-check trips.
		if err := read(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("not a v3 file", func(t *testing.T) {
		err := read(toMTR2(encodeMTR3(t, hdr, accs[:100], 2048)))
		wantConvertError(t, "v2", err)
		if err := read([]byte("not a trace at all")); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("garbage: got %v, want ErrBadMagic", err)
		}
	})
}

func TestIndexedSourceMatchesSequential(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 8}
	accs := indexTestAccesses(20_000)
	data := encodeMTR3(t, hdr, accs, 2048)

	for _, decoders := range []int{1, 2, 4} {
		src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), decoders)
		if err != nil {
			t.Fatal(err)
		}
		if src.Decoders() != decoders {
			t.Fatalf("Decoders() = %d, want %d", src.Decoders(), decoders)
		}
		if src.Header() != hdr {
			t.Fatalf("Header() = %+v, want %+v", src.Header(), hdr)
		}
		// Two passes with a Reset between, exercising both read faces.
		for pass := 0; pass < 2; pass++ {
			var got []Access
			if pass == 0 {
				buf := make([]Access, 777) // off-size to cross window boundaries
				for {
					n, err := src.NextBatch(buf)
					got = append(got, buf[:n]...)
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			} else {
				for {
					a, err := src.Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, a)
				}
			}
			if len(got) != len(accs) {
				t.Fatalf("decoders=%d pass %d: %d accesses, want %d", decoders, pass, len(got), len(accs))
			}
			for i := range got {
				if got[i] != accs[i] {
					t.Fatalf("decoders=%d pass %d access %d: %+v != %+v", decoders, pass, i, got[i], accs[i])
				}
			}
			if err := src.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIndexedSourceSegmentCorruption(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 8}
	accs := indexTestAccesses(10_000)
	data := encodeMTR3(t, hdr, accs, 2048)

	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a record byte in the third segment: ReadIndex still accepts the
	// file (the index itself is intact), but decode must hit the segment
	// CRC and fail typed — never return silently wrong accesses.
	seg := idx.Segments[2]
	bad := append([]byte{}, data...)
	bad[seg.Off+seg.Len/2] ^= 0x40

	src, err := NewIndexedSource(bytes.NewReader(bad), int64(len(bad)), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	n := 0
	for {
		_, err := src.Next()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v after %d accesses, want ErrCorrupt", err, n)
			}
			break
		}
		n++
		if n > len(accs) {
			t.Fatal("decoded past the end of a corrupt trace")
		}
	}
	// Everything before the bad segment must have decoded: errors surface
	// in segment order, not as an early abort of good data.
	if n != int(seg.StartIndex) {
		t.Fatalf("decoded %d accesses before the error, want %d", n, seg.StartIndex)
	}
}

func TestOpenFileParallelCorruptV3FailsLoudly(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 8}
	data := encodeMTR3(t, hdr, indexTestAccesses(5000), 2048)
	data[len(data)-footerSize-1] ^= 0x01 // break the index CRC

	path := filepath.Join(t.TempDir(), "bad.mtr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileParallelCache(path, 2, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want a loud ErrCorrupt", err)
	}
}

func TestWriterSegmentTarget(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 8}
	accs := indexTestAccesses(50_000)
	data := encodeMTR3(t, hdr, accs, 4096)
	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range idx.Segments {
		if seg.Len > 4096+20 { // target plus one max-size record
			t.Fatalf("segment %d is %d bytes, target 4096", i, seg.Len)
		}
		if i < len(idx.Segments)-1 && seg.Len < 4096/2 {
			t.Fatalf("non-final segment %d is only %d bytes", i, seg.Len)
		}
	}
}
