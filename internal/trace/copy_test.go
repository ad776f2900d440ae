package trace_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"migratory/internal/memory"
	"migratory/internal/trace"
	"migratory/internal/workload"
)

// copyTrace is a trace several batches long, with every node and kind.
func copyTrace(n int) []trace.Access {
	accs := make([]trace.Access, n)
	for i := range accs {
		accs[i] = trace.Access{Node: memory.NodeID(i % 16), Kind: trace.Kind(i % 5 / 3), Addr: memory.Addr(i * 52 % 90000)}
	}
	return accs
}

var copyHdr = trace.Header{BlockSize: 16, PageSize: 4096, Nodes: 16}

// failingReader yields accs through Next, then fails with err at access
// fail instead of returning io.EOF. reads counts the accesses it yielded.
type failingReader struct {
	accs  []trace.Access
	fail  int
	err   error
	reads int
}

func (r *failingReader) Next() (trace.Access, error) {
	if r.reads == r.fail {
		return trace.Access{}, r.err
	}
	if r.reads == len(r.accs) {
		return trace.Access{}, io.EOF
	}
	r.reads++
	return r.accs[r.reads-1], nil
}

// failingBatchReader is failingReader with NextBatch, which returns the
// accesses before the failure together with the error.
type failingBatchReader struct{ failingReader }

func (r *failingBatchReader) NextBatch(buf []trace.Access) (int, error) {
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

// sequentialCopy is the reference: each access read and written in turn,
// stopping at the first error.
func sequentialCopy(w *trace.Writer, r trace.Reader) (int, error) {
	n := 0
	for {
		a, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(a); err != nil {
			return n, err
		}
		n++
	}
}

// settleGoroutines waits up to a second for the goroutine count to fall
// back to want, so that a reader goroutine past its last statement has
// time to exit, and fails t if it does not.
func settleGoroutines(t *testing.T, want int, where string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	got := runtime.NumGoroutine()
	for got != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got != want {
		t.Errorf("%s: %d goroutines after Copy returned, %d before", where, got, want)
	}
}

// TestCopyReaderError fails the reader at access k, through Next alone and
// through NextBatch: Copy must return the count and the error of writing
// the accesses one by one, leave the same bytes in the Writer, and have no
// goroutine left when it returns.
func TestCopyReaderError(t *testing.T) {
	const total = 5*trace.DefaultBatchSize + 17
	accs := copyTrace(total)
	readErr := errors.New("disk gone")
	b := trace.DefaultBatchSize
	for _, k := range []int{0, 1, b - 1, b, b + 1, 3*b + 5, total - 1, total, total + 1} {
		for _, batched := range []bool{false, true} {
			open := func() trace.Reader {
				fr := failingReader{accs: accs, fail: k, err: readErr}
				if batched {
					return &failingBatchReader{fr}
				}
				return &fr
			}
			var want, got bytes.Buffer
			ww := trace.NewWriterOptions(&want, copyHdr, trace.WriterOptions{SegmentBytes: 4096})
			wn, werr := sequentialCopy(ww, open())
			before := runtime.NumGoroutine()
			gw := trace.NewWriterOptions(&got, copyHdr, trace.WriterOptions{SegmentBytes: 4096})
			gn, gerr := trace.Copy(gw, open())
			settleGoroutines(t, before, "reader error")
			if gn != wn || !errors.Is(gerr, werr) {
				t.Fatalf("k=%d batched=%v: Copy = %d, %v; one by one = %d, %v", k, batched, gn, gerr, wn, werr)
			}
			if err := ww.Close(); err != nil {
				t.Fatal(err)
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("k=%d batched=%v: Copy wrote %d bytes that differ from the %d written one by one", k, batched, got.Len(), want.Len())
			}
		}
	}
}

// TestCopyWriterError fails the sink inside the header, the first segment
// and later ones: Copy must return the sink's error and the count of
// writing one by one, stop the reader within the batches in flight
// (three), and have no goroutine left when it returns.
func TestCopyWriterError(t *testing.T) {
	const total = 100 * trace.DefaultBatchSize
	accs := copyTrace(total)
	for _, k := range []int{2, 100, 5000, 40000, 150000, 400000} {
		sinkErr := errors.New("sink full")
		ww := trace.NewWriterOptions(&failAfter{n: k, err: sinkErr}, copyHdr, trace.WriterOptions{SegmentBytes: 4096})
		wn, werr := sequentialCopy(ww, &failingReader{accs: accs, fail: -1})

		r := &failingBatchReader{failingReader{accs: accs, fail: -1}}
		before := runtime.NumGoroutine()
		gw := trace.NewWriterOptions(&failAfter{n: k, err: sinkErr}, copyHdr, trace.WriterOptions{SegmentBytes: 4096})
		gn, gerr := trace.Copy(gw, r)
		settleGoroutines(t, before, "writer error")
		if !errors.Is(werr, sinkErr) {
			t.Fatalf("k=%d: writing one by one = %d, %v; want the sink's error", k, wn, werr)
		}
		if gn != wn || !errors.Is(gerr, sinkErr) {
			t.Errorf("k=%d: Copy = %d, %v; one by one = %d, %v", k, gn, gerr, wn, werr)
		}
		if r.reads > gn+3*trace.DefaultBatchSize {
			t.Errorf("k=%d: the reader went on to access %d of %d after the write of access %d failed", k, r.reads, total, gn)
		}
	}
}

// TestCopyResetCopy copies a generated trace, resets the generator as soon
// as Copy returns and copies it again, as tracegen does before -stats:
// both copies must give the same bytes, equal to writing the accesses one
// by one. Under the race detector this also checks that the reader
// goroutine is done with the source when Copy returns.
func TestCopyResetCopy(t *testing.T) {
	prof, err := workload.ProfileByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewSource(prof, 16, 1993, 3*trace.DefaultBatchSize+100)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	ww := trace.NewWriter(&want, copyHdr)
	if _, err := sequentialCopy(ww, src); err != nil {
		t.Fatal(err)
	}
	if err := ww.Close(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		var got bytes.Buffer
		w := trace.NewWriter(&got, copyHdr)
		if n, err := trace.Copy(w, src); err != nil || n != src.Len() {
			t.Fatalf("pass %d: Copy = %d, %v; want %d", pass, n, err, src.Len())
		}
		settleGoroutines(t, before, "copy")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("pass %d: Copy wrote %d bytes that differ from the %d written one by one", pass, got.Len(), want.Len())
		}
	}
}

// BenchmarkCopyMP3D times tracegen's export: the 2 M-access MP3D stream of
// `tracegen -app MP3D -length 2000000` copied from the generator into a
// Writer over io.Discard, generator and encoder overlapping. It reports
// ns per access.
func BenchmarkCopyMP3D(b *testing.B) {
	const length = 2_000_000
	prof, err := workload.ProfileByName("MP3D")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := workload.NewSource(prof, 16, 1993, length)
		if err != nil {
			b.Fatal(err)
		}
		w := trace.NewWriter(io.Discard, copyHdr)
		if n, err := trace.Copy(w, src); err != nil || n != length {
			b.Fatalf("copied %d: %v", n, err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/length, "ns/access")
}
