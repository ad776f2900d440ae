package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"migratory/internal/memory"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// TestWriterPinnedBytes pins the exact bytes the writer emits for a
// generated trace, at the default segment size and at 64-byte segments
// (about 25 records each, so thousands of segment closes and CRCs). Any
// change to the format, a segment boundary, a CRC or the index moves a
// hash.
func TestWriterPinnedBytes(t *testing.T) {
	prof, err := workload.ProfileByName("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		segBytes int
		want     string
	}{
		{0, "600a80717e3f47af7d53759d8496b6971fa248fe380f32fce750dacf28760351"},
		{64, "7e9ca6229094d8c529b9497c51ef30b799257b11c1ad35a265f476f922b4206c"},
	} {
		src, err := workload.NewSource(prof, 16, 1993, 200000)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := trace.NewWriterOptions(&buf, trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 16},
			trace.WriterOptions{SegmentBytes: tc.segBytes})
		if n, err := trace.Copy(w, src); err != nil || n != 200000 {
			t.Fatalf("segment bytes %d: copied %d: %v", tc.segBytes, n, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("segment bytes %d: %d bytes, sha256 %s, want %s", tc.segBytes, buf.Len(), got, tc.want)
		}
	}
}

// failAfter is a sink that accepts n bytes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	k := f.n
	f.n = 0
	return k, f.err
}

// TestWriterSinkError fails the sink inside the header, inside a segment
// and inside the index: Close must report the sink's error, never nil, and
// every later Write must return the same error.
func TestWriterSinkError(t *testing.T) {
	var accs []trace.Access
	for i := 0; i < 1000; i++ {
		accs = append(accs, trace.Access{Node: memory.NodeID(i % 16), Kind: trace.Kind(i % 3 / 2), Addr: memory.Addr(i * 48 % 5000)})
	}
	hdr := trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 16}
	opts := trace.WriterOptions{SegmentBytes: 256}
	var full bytes.Buffer
	w := trace.NewWriterOptions(&full, hdr, opts)
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The footer's first 8 bytes are the index offset; the 8-byte header
	// ends where the first segment starts.
	indexOff := int(binary.LittleEndian.Uint64(full.Bytes()[full.Len()-16:]))

	for _, tc := range []struct {
		where string
		k     int
	}{
		{"header", 2},
		{"first segment", 8 + 100},
		{"middle segment", indexOff / 2},
		{"index", indexOff + 4},
		{"footer", full.Len() - 1},
	} {
		sinkErr := errors.New("sink full")
		w := trace.NewWriterOptions(&failAfter{n: tc.k, err: sinkErr}, hdr, opts)
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				if !errors.Is(err, sinkErr) {
					t.Fatalf("%s: Write: %v, want the sink's error", tc.where, err)
				}
				break
			}
		}
		if err := w.Close(); !errors.Is(err, sinkErr) {
			t.Errorf("%s (byte %d): Close = %v, want the sink's error", tc.where, tc.k, err)
		}
		if err := w.Write(accs[0]); !errors.Is(err, sinkErr) {
			t.Errorf("%s: Write after the failure = %v, want the sink's error", tc.where, err)
		}
	}
}
