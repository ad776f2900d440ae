package migratory

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
)

// noBatch hides a source's NextBatch method, forcing FillTraceBatch (and
// the engines behind it) onto the per-access Next fallback. Running the
// same trace through the raw source and through noBatch therefore compares
// the batched hot loop against the unbatched one.
type noBatch struct {
	src TraceSource
}

func (n noBatch) Next() (Access, error) { return n.src.Next() }
func (n noBatch) Reset() error          { return n.src.Reset() }
func (n noBatch) Close() error          { return nil }

// runDirectory builds a directory-based system and streams src through it.
func runDirectory(ctx context.Context, src TraceSource, cfg DirectoryConfig) (*DirectorySystem, error) {
	sys, err := NewDirectorySystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys, sys.RunSource(ctx, src)
}

// runBus builds a snooping bus system and streams src through it.
func runBus(ctx context.Context, src TraceSource, cfg BusConfig) (*BusSystem, error) {
	sys, err := NewBusSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys, sys.RunSource(ctx, src)
}

// runTimedSource streams src through the timing model via Run, on the
// default 16-node machine with 16-byte blocks and infinite caches.
func runTimedSource(ctx context.Context, src TraceSource, policy Policy) (TimingResult, error) {
	res, err := Run(ctx, RunConfig{
		Engine:     EngineTiming,
		Policy:     policy.Name,
		OpenSource: func() (TraceSource, error) { return src, nil },
	})
	if err != nil {
		return TimingResult{}, err
	}
	return *res.Timing, nil
}

// equivTrace is the shared input of the equivalence tests: one generated
// workload materialized as a slice and encoded as an .mtr image.
func equivTrace(t *testing.T) ([]Access, []byte) {
	t.Helper()
	accs, err := GenerateWorkload("MP3D", 16, 1993, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, TraceHeader{BlockSize: 16, PageSize: 4096, Nodes: 16})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return accs, buf.Bytes()
}

// equivSources returns the three source kinds over the same trace: the
// in-memory slice, the lazy generator, and the .mtr file decoder.
func equivSources(t *testing.T, accs []Access, mtr []byte) map[string]func() TraceSource {
	t.Helper()
	return map[string]func() TraceSource{
		"slice": func() TraceSource { return NewSliceTraceSource(accs) },
		"generator": func() TraceSource {
			src, err := NewGeneratorSource("MP3D", 16, 1993, 25_000)
			if err != nil {
				t.Fatal(err)
			}
			return src
		},
		"file": func() TraceSource {
			src, err := NewFileTraceSource(bytes.NewReader(mtr))
			if err != nil {
				t.Fatal(err)
			}
			return src
		},
	}
}

// TestBatchedDirectoryEquivalence: for every policy and every source kind,
// the batched pull path lands on counters bit-identical to the per-access
// path.
func TestBatchedDirectoryEquivalence(t *testing.T) {
	accs, mtr := equivTrace(t)
	sources := equivSources(t, accs, mtr)
	for _, pol := range append(Policies(), Stenstrom) {
		for name, open := range sources {
			cfg := DirectoryConfig{
				Nodes:     16,
				Geometry:  MustGeometry(16, 4096),
				Policy:    pol,
				Placement: RoundRobinPlacement(16),
			}
			batched, err := runDirectory(nil, open(), cfg)
			if err != nil {
				t.Fatalf("%s/%s batched: %v", pol, name, err)
			}
			unbatched, err := runDirectory(nil, noBatch{open()}, cfg)
			if err != nil {
				t.Fatalf("%s/%s unbatched: %v", pol, name, err)
			}
			if batched.Messages() != unbatched.Messages() {
				t.Errorf("%s/%s: messages %+v != %+v", pol, name, batched.Messages(), unbatched.Messages())
			}
			if batched.Counters() != unbatched.Counters() {
				t.Errorf("%s/%s: counters %+v != %+v", pol, name, batched.Counters(), unbatched.Counters())
			}
		}
	}
}

// TestBatchedBusEquivalence: same bit-identity for every bus protocol
// variant and source kind.
func TestBatchedBusEquivalence(t *testing.T) {
	accs, mtr := equivTrace(t)
	sources := equivSources(t, accs, mtr)
	protocols := []BusProtocol{BusMESI, BusAdaptive, BusAdaptiveMigrateFirst,
		BusSymmetry, BusBerkeley, BusUpdateOnce}
	for _, p := range protocols {
		for name, open := range sources {
			cfg := BusConfig{Nodes: 16, Geometry: MustGeometry(16, 4096), Protocol: p}
			batched, err := runBus(nil, open(), cfg)
			if err != nil {
				t.Fatalf("%s/%s batched: %v", p, name, err)
			}
			unbatched, err := runBus(nil, noBatch{open()}, cfg)
			if err != nil {
				t.Fatalf("%s/%s unbatched: %v", p, name, err)
			}
			if batched.Counts() != unbatched.Counts() {
				t.Errorf("%s/%s: counts %+v != %+v", p, name, batched.Counts(), unbatched.Counts())
			}
		}
	}
}

// TestBatchedTimingEquivalence covers the third engine.
func TestBatchedTimingEquivalence(t *testing.T) {
	accs, mtr := equivTrace(t)
	sources := equivSources(t, accs, mtr)
	for _, pol := range Policies() {
		for name, open := range sources {
			batched, err := runTimedSource(nil, open(), pol)
			if err != nil {
				t.Fatalf("%s/%s batched: %v", pol, name, err)
			}
			unbatched, err := runTimedSource(nil, noBatch{open()}, pol)
			if err != nil {
				t.Fatalf("%s/%s unbatched: %v", pol, name, err)
			}
			if batched.Cycles != unbatched.Cycles || batched.Msgs != unbatched.Msgs ||
				batched.StallCycles != unbatched.StallCycles ||
				batched.ContentionCycles != unbatched.ContentionCycles {
				t.Errorf("%s/%s: %+v != %+v", pol, name, batched, unbatched)
			}
		}
	}
}

// TestFillTraceBatchFallback pins the adapter contract on a Next-only
// reader: full buffers until the tail, then a short batch, then (0, EOF).
func TestFillTraceBatchFallback(t *testing.T) {
	accs, _ := equivTrace(t)
	src := noBatch{NewSliceTraceSource(accs)}
	buf := make([]Access, 7)
	var got []Access
	for {
		n, err := FillTraceBatch(src, buf)
		got = append(got, buf[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("short batch (%d/%d) without error", n, len(buf))
		}
	}
	if len(got) != len(accs) {
		t.Fatalf("drained %d accesses, want %d", len(got), len(accs))
	}
	for i := range got {
		if got[i] != accs[i] {
			t.Fatalf("access %d: %+v != %+v", i, got[i], accs[i])
		}
	}
}

// FuzzBatchBoundary drives the batched decode path with arbitrary batch
// sizes — including 1 and the whole trace — and checks the reassembled
// stream is identical to the per-access one no matter where the batch
// boundaries fall.
func FuzzBatchBoundary(f *testing.F) {
	accs, err := GenerateWorkload("Water", 16, 7, 2_000)
	if err != nil {
		f.Fatal(err)
	}
	var img bytes.Buffer
	w := NewTraceWriter(&img, TraceHeader{BlockSize: 16, PageSize: 4096, Nodes: 16})
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	mtr := img.Bytes()

	f.Add(uint16(1), false)
	f.Add(uint16(2), true)
	f.Add(uint16(len(accs)), false)
	f.Add(uint16(len(accs)+1), true)
	f.Add(uint16(DefaultTraceBatchSize), false)
	f.Add(uint16(4095), true)
	f.Fuzz(func(t *testing.T, size uint16, fromFile bool) {
		if size == 0 {
			size = 1
		}
		var src TraceSource
		if fromFile {
			fs, err := NewFileTraceSource(bytes.NewReader(mtr))
			if err != nil {
				t.Fatal(err)
			}
			src = fs
		} else {
			src = NewSliceTraceSource(accs)
		}
		buf := make([]Access, size)
		var got []Access
		for {
			n, err := FillTraceBatch(src, buf)
			if n < 0 || n > len(buf) {
				t.Fatalf("NextBatch returned n=%d for len(buf)=%d", n, len(buf))
			}
			got = append(got, buf[:n]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) > len(accs) {
				t.Fatalf("stream overran: %d > %d accesses", len(got), len(accs))
			}
		}
		if len(got) != len(accs) {
			t.Fatalf("batch size %d: drained %d accesses, want %d", size, len(got), len(accs))
		}
		for i := range got {
			if got[i] != accs[i] {
				t.Fatalf("batch size %d: access %d is %+v, want %+v", size, i, got[i], accs[i])
			}
		}
		// A drained source keeps reporting (0, EOF).
		if n, err := FillTraceBatch(src, buf); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("after EOF: (%d, %v)", n, err)
		}
	})
}
