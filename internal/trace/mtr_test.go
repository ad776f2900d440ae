package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"migratory/internal/memory"
)

func mtrAccesses() []Access {
	return []Access{
		{Node: 0, Kind: Read, Addr: 0},
		{Node: 3, Kind: Write, Addr: 4096},
		{Node: 3, Kind: Read, Addr: 4080}, // negative delta
		{Node: 15, Kind: Write, Addr: 1 << 30},
		{Node: 1, Kind: Read, Addr: 16},
	}
}

func encodeMTR(t *testing.T, hdr Header, accs []Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, hdr)
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

// readIndexed decodes an in-memory trace image through the indexed reader,
// the one every run uses.
func readIndexed(data []byte) ([]Access, error) {
	src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), 2)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return ReadAll(src)
}

// readSequential decodes an in-memory trace image through Decoder, the
// sequential reference reader.
func readSequential(data []byte) ([]Access, error) {
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return ReadAll(dec)
}

// toMTR2 turns a v3 image into the equivalent MTR2 one: the record streams
// are byte-identical, so cutting the index and footer and swapping the
// magic is the whole conversion.
func toMTR2(v3 []byte) []byte {
	indexOff := binary.LittleEndian.Uint64(v3[len(v3)-footerSize:])
	out := append([]byte(nil), v3[:indexOff]...)
	copy(out, magic2[:])
	return out
}

// wantConvertError checks that err refuses a pre-index trace the way every
// run path must: wrapping ErrNoIndex and naming the converter.
func wantConvertError(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrNoIndex) || !strings.Contains(fmt.Sprint(err), ConvertCommand) {
		t.Fatalf("%s: got %v, want ErrNoIndex naming %q", what, err, ConvertCommand)
	}
}

func TestMTRRoundTrip(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 16}
	accs := mtrAccesses()
	data := encodeMTR(t, hdr, accs)

	src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if src.Header() != hdr {
		t.Fatalf("header %+v != %+v", src.Header(), hdr)
	}
	if g, ok := src.Header().Geometry(); !ok || g.BlockSize() != 16 {
		t.Fatalf("geometry = %v, %v", g, ok)
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("decoded %d accesses, want %d", len(got), len(accs))
	}
	for i := range accs {
		if got[i] != accs[i] {
			t.Fatalf("access %d: %v != %v", i, got[i], accs[i])
		}
	}
	// EOF persists and Reset rewinds to the first access.
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("post-EOF Next = %v", err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	a, err := src.Next()
	if err != nil || a != accs[0] {
		t.Fatalf("after Reset: %v, %v", a, err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMTRRoundTripEmpty(t *testing.T) {
	data := encodeMTR(t, Header{}, nil)
	for name, read := range map[string]func([]byte) ([]Access, error){
		"indexed": readIndexed, "sequential": readSequential,
	} {
		if got, err := read(data); err != nil || len(got) != 0 {
			t.Fatalf("%s: empty trace: %v, %v", name, got, err)
		}
	}
}

// TestMTRTruncation cuts a valid stream at every possible byte boundary:
// every cut must fail typed with ErrTruncated (or ErrBadMagic inside the
// magic), through the indexed reader and the sequential one alike — never
// a silent short read, never a panic.
func TestMTRTruncation(t *testing.T) {
	data := encodeMTR(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 16}, mtrAccesses())
	for cut := 0; cut < len(data); cut++ {
		for name, read := range map[string]func([]byte) ([]Access, error){
			"indexed": readIndexed, "sequential": readSequential,
		} {
			_, err := read(data[:cut])
			if err == nil {
				t.Fatalf("%s: cut at %d/%d decoded cleanly", name, cut, len(data))
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("%s: cut at %d/%d: %v (want ErrTruncated or ErrBadMagic)", name, cut, len(data), err)
			}
		}
	}
}

// TestMTRCorrupt pins the sequential reader's structural checks (it reads
// the conversion input, so it keeps every one), and the indexed reader's
// typed refusal of the same inputs.
func TestMTRCorrupt(t *testing.T) {
	valid := encodeMTR(t, Header{Nodes: 4}, []Access{{Node: 1, Kind: Write, Addr: 64}})

	t.Run("trailing garbage", func(t *testing.T) {
		data := append(append([]byte{}, valid...), 0xAA)
		if _, err := readSequential(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
		// The indexed reader finds no footer at the end of the file.
		if _, err := readIndexed(data); !errors.Is(err, ErrTruncated) {
			t.Fatalf("indexed: got %v, want ErrTruncated", err)
		}
	})

	t.Run("wrong trailer count", func(t *testing.T) {
		// An MTR2 image, whose final byte IS the trailer count; in v3 the
		// trailer sits before the index and the cross-check is exercised by
		// the index tests.
		data := toMTR2(valid)
		data[len(data)-1] = 7 // trailer says 7 records, stream has 1
		if _, err := readSequential(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
		_, err := readIndexed(data)
		wantConvertError(t, "indexed", err)
	})

	t.Run("node outside header", func(t *testing.T) {
		// Header says 4 nodes; hand-craft a record head for node 9.
		var buf bytes.Buffer
		buf.Write(magic2[:])
		buf.Write([]byte{0, 0, 4})        // header: unspecified geometry, 4 nodes
		buf.Write([]byte{byte(9<<1) + 1}) // head: node 9, read
		buf.Write([]byte{0})              // delta 0
		buf.Write([]byte{0, 1})           // trailer: 1 record
		if _, err := readSequential(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("implausible header", func(t *testing.T) {
		for _, m := range [][4]byte{magic2, magic3} {
			data := append(m[:], 0, 0, 65) // 65 nodes > MaxNodes
			if _, err := NewDecoder(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: got %v, want ErrCorrupt", m[:], err)
			}
		}
		if _, err := readIndexed(append(magic3[:], 0, 0, 65)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("indexed: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		data := []byte("NOPE....")
		if _, err := NewDecoder(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
		if _, err := readIndexed(data); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("indexed: got %v, want ErrBadMagic", err)
		}
	})
}

func TestMTRWriterRejections(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Nodes: memory.MaxNodes + 1})
	if err := w.Write(Access{}); err == nil {
		t.Fatal("invalid header accepted")
	}

	buf.Reset()
	w = NewWriter(&buf, Header{Nodes: 4})
	if err := w.Write(Access{Node: 4}); err == nil {
		t.Fatal("node outside header accepted")
	}

	buf.Reset()
	w = NewWriter(&buf, Header{})
	if err := w.Write(Access{Kind: Kind(3)}); err == nil {
		t.Fatal("impossible kind accepted")
	}

	buf.Reset()
	w = NewWriter(&buf, Header{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Access{}); err == nil {
		t.Fatal("Write after Close accepted")
	}

	// Version 3 is the only format written.
	for _, v := range []int{1, 2, 4} {
		buf.Reset()
		w = NewWriterOptions(&buf, Header{}, WriterOptions{Version: v})
		if err := w.Write(Access{}); err == nil {
			t.Fatalf("writer format version %d accepted", v)
		}
	}
}

// TestFileSourceReadsLegacy: an MTR1 (fixed-record) stream still decodes
// through the sequential reader, with a zero header, as conversion input;
// the indexed reader every run uses refuses it and names the converter.
func TestFileSourceReadsLegacy(t *testing.T) {
	accs := mtrAccesses()
	var buf bytes.Buffer
	if err := WriteTo(&buf, accs); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header() != (Header{}) {
		t.Fatalf("legacy header = %+v, want zero", dec.Header())
	}
	got, err := ReadAll(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("decoded %d accesses, want %d", len(got), len(accs))
	}
	for i := range accs {
		if got[i] != accs[i] {
			t.Fatalf("access %d: %v != %v", i, got[i], accs[i])
		}
	}
	_, err = readIndexed(buf.Bytes())
	wantConvertError(t, "indexed MTR1", err)
}

func TestMTRCopy(t *testing.T) {
	accs := mtrAccesses()
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{})
	n, err := Copy(w, NewSliceSource(accs))
	if err != nil || n != len(accs) {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readIndexed(buf.Bytes())
	if err != nil || len(got) != len(accs) {
		t.Fatalf("decode after Copy: %d, %v", len(got), err)
	}
}

// TestMTRCompactness: the varint-delta format should be much smaller than
// the 10-byte fixed records for address-local traces.
func TestMTRCompactness(t *testing.T) {
	accs := make([]Access, 10_000)
	addr := memory.Addr(0)
	for i := range accs {
		addr += memory.Addr(16 * (i % 5))
		accs[i] = Access{Node: memory.NodeID(i % 16), Kind: Kind(i % 2), Addr: addr}
	}
	mtr3 := encodeMTR(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 16}, accs)
	var mtr1 bytes.Buffer
	if err := WriteTo(&mtr1, accs); err != nil {
		t.Fatal(err)
	}
	if len(mtr3)*2 > mtr1.Len() {
		t.Fatalf("MTR3 %d bytes not clearly below MTR1 %d bytes", len(mtr3), mtr1.Len())
	}
}
